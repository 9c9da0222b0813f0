package kg_test

import (
	"fmt"

	"newslink/internal/kg"
)

func Example() {
	b := kg.NewBuilder(4)
	pakistan := b.AddNode("Pakistan", kg.KindGPE, "a country")
	khyber := b.AddNode("Khyber", kg.KindGPE, "a province")
	peshawar := b.AddNode("Peshawar", kg.KindGPE, "a city")
	b.AddEdgeByName(khyber, pakistan, "located in", 1)
	b.AddEdgeByName(peshawar, khyber, "capital of", 1)
	b.AddAlias(peshawar, "Pekhawar")
	g := b.Build()

	fmt.Println(g.NumNodes(), "nodes,", g.NumEdges(), "edges")
	for k := range g.Degree(khyber) {
		a := g.Arc(khyber, k)
		dir := "->"
		if a.Reverse {
			dir = "<-"
		}
		fmt.Printf("Khyber %s %s (%s)\n", dir, g.Label(a.To), g.RelName(a.Rel))
	}
	fmt.Println("alias lookup:", g.Label(g.Lookup("pekhawar")[0]))
	// Output:
	// 3 nodes, 2 edges
	// Khyber -> Pakistan (located in)
	// Khyber <- Peshawar (capital of)
	// alias lookup: Peshawar
}

func ExampleGenerate() {
	w := kg.Generate(kg.Config{
		Seed: 1, Countries: 2, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		PersonsPerCountry: 3, OrgsPerCountry: 5, EventsPerCountry: 5,
	})
	s := kg.ComputeStats(w.Graph)
	fmt.Println("connected:", s.Components == 1)
	fmt.Println("has events:", len(w.Events) > 0)
	// Output:
	// connected: true
	// has events: true
}
