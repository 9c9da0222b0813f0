module newslink/bench

go 1.22

require newslink v0.0.0

replace newslink => ../
