package anonconsensus_test

import (
	"context"
	"fmt"
	"log"

	"anonconsensus"
)

// ExampleNode_Run runs a deterministic seeded simulation: same proposals
// and options, same run, every time.
func ExampleNode_Run() {
	node, err := anonconsensus.NewNode(anonconsensus.NewSimTransport(),
		anonconsensus.WithEnv(anonconsensus.EnvES),
		anonconsensus.WithGST(0), // synchronous from the start
		anonconsensus.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	res, err := node.Run(context.Background(), "example", []anonconsensus.Value{
		anonconsensus.NumValue(3),
		anonconsensus.NumValue(1),
		anonconsensus.NumValue(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	v, ok := res.Agreed()
	fmt.Println(ok, v)
	// Output: true 000000000003
}

// ExampleNewWeakSet shows the anonymous shared set: adds never overwrite.
func ExampleNewWeakSet() {
	ws := anonconsensus.NewWeakSet()
	_ = ws.Add("blue")
	_ = ws.Add("green")
	_ = ws.Add("blue") // duplicate: sets collapse it
	got, _ := ws.Get()
	fmt.Println(got)
	// Output: [blue green]
}

// ExampleNewRegister shows Proposition 1's register: last completed write
// wins.
func ExampleNewRegister() {
	r := anonconsensus.NewRegister()
	_ = r.Write("v1")
	_ = r.Write("v2")
	v, ok, _ := r.Read()
	fmt.Println(ok, v)
	// Output: true v2
}

// ExampleNewOFConsensus decides without any synchrony assumption when a
// proposer runs uncontended.
func ExampleNewOFConsensus() {
	c := anonconsensus.NewOFConsensus()
	v, ok, _ := c.Propose("leader-token", 8)
	fmt.Println(ok, v)
	// Output: true leader-token
}
