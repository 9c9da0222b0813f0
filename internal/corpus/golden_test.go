package corpus

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"newslink/internal/kg"
)

// TestGeneratedInputsGolden pins the bytes of the benchmark's input
// generators: kg.Write of kg.Generate and WriteJSONL of Generate over that
// world, for the small (20 countries ≈ 1.6k nodes) and the large (1250 ≈
// 101k nodes) worlds at two seeds. A change to how the graph is stored,
// built or serialized must leave every file byte-identical; the CRCs were
// recorded before the graph moved to column storage.
func TestGeneratedInputsGolden(t *testing.T) {
	cases := []struct {
		countries int
		seed      int64
		kgCRC     uint32
		docsCRC   uint32
	}{
		{20, 7, 0x7d4d31ae, 0x8d6e5c3f},
		{20, 11, 0x97f609ec, 0xf5ddfd27},
		{1250, 7, 0x8b2e2f91, 0xebd58a6f},
		{1250, 11, 0x3dccd85c, 0xc6d56323},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("countries=%d/seed=%d", c.countries, c.seed), func(t *testing.T) {
			cfg := kg.DefaultConfig(c.seed)
			cfg.Countries = c.countries
			w := kg.Generate(cfg)
			var buf bytes.Buffer
			if err := kg.Write(&buf, w.Graph); err != nil {
				t.Fatal(err)
			}
			if got := crc32.ChecksumIEEE(buf.Bytes()); got != c.kgCRC {
				t.Errorf("kg.Write CRC = %#08x, want %#08x (%d bytes)", got, c.kgCRC, buf.Len())
			}
			buf.Reset()
			if err := WriteJSONL(&buf, Generate(w, CNNLike(), 400, c.seed)); err != nil {
				t.Fatal(err)
			}
			if got := crc32.ChecksumIEEE(buf.Bytes()); got != c.docsCRC {
				t.Errorf("WriteJSONL CRC = %#08x, want %#08x (%d bytes)", got, c.docsCRC, buf.Len())
			}
		})
	}
}
