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

// ExampleNode_Propose is a what-if matrix: one sim Node runs a grid of
// instances, each overriding the session's GST and crash schedule, and
// prints the round by which every surviving process decided. Identical
// inputs give identical runs, so the matrix is stable across machines.
func ExampleNode_Propose() {
	node, err := anonconsensus.NewNode(anonconsensus.NewSimTransport(),
		anonconsensus.WithEnv(anonconsensus.EnvES),
		anonconsensus.WithSeed(99),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	ctx := context.Background()
	epochs := []anonconsensus.Value{
		anonconsensus.NumValue(300), anonconsensus.NumValue(301), anonconsensus.NumValue(302),
		anonconsensus.NumValue(303), anonconsensus.NumValue(304), anonconsensus.NumValue(305),
	}
	gsts, crashCounts := []int{0, 10}, []int{0, 2}
	for _, gst := range gsts {
		for _, f := range crashCounts {
			crashes := make(map[int]int)
			for i := 0; i < f; i++ {
				crashes[i] = 2 + 3*i // staggered failures
			}
			id := fmt.Sprintf("gst=%d f=%d", gst, f)
			if err := node.Propose(ctx, id, epochs,
				anonconsensus.WithGST(gst), anonconsensus.WithCrashes(crashes)); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, gst := range gsts {
		for _, f := range crashCounts {
			id := fmt.Sprintf("gst=%d f=%d", gst, f)
			res, err := node.Wait(ctx, id)
			if err != nil {
				log.Fatal(err)
			}
			v, ok := res.Agreed()
			last := 0
			for _, d := range res.Decisions {
				if d.Decided && d.Round > last {
					last = d.Round
				}
			}
			fmt.Printf("%s: agreed=%v on %s by round %d\n", id, ok, v, last)
		}
	}
	// Output:
	// gst=0 f=0: agreed=true on 000000000305 by round 4
	// gst=0 f=2: agreed=true on 000000000305 by round 4
	// gst=10 f=0: agreed=true on 000000000301 by round 6
	// gst=10 f=2: agreed=true on 000000000301 by round 6
}

// ExampleNode_Decisions streams one ESS instance's decisions: nine
// anonymous sensors, two of which crash early, agree on one reading once
// process 3 becomes the eventual source. With the default single worker
// the feed's order is fixed: Started, one Decision per survivor, Done.
func ExampleNode_Decisions() {
	node, err := anonconsensus.NewNode(anonconsensus.NewSimTransport(),
		anonconsensus.WithEnv(anonconsensus.EnvESS),
		anonconsensus.WithGST(8),
		anonconsensus.WithStableSource(3),
		anonconsensus.WithSeed(42),
		anonconsensus.WithCrashes(map[int]int{1: 2, 6: 3}),
	)
	if err != nil {
		log.Fatal(err)
	}
	// Readings in deci-degrees; equal readings are indistinguishable.
	readings := []int64{217, 221, 219, 222, 217, 220, 221, 219, 218}
	proposals := make([]anonconsensus.Value, len(readings))
	for i, r := range readings {
		proposals[i] = anonconsensus.NumValue(r)
	}
	if err := node.Propose(context.Background(), "report-1", proposals); err != nil {
		log.Fatal(err)
	}
	for ev := range node.Decisions() {
		switch ev.Kind {
		case anonconsensus.EventInstanceStarted:
			fmt.Println(ev.Instance, "started")
		case anonconsensus.EventDecision:
			fmt.Printf("sensor %d: %s (round %d)\n", ev.Decision.Proc, ev.Decision.Value, ev.Decision.Round)
		case anonconsensus.EventInstanceDone:
			v, ok := ev.Result.Agreed()
			fmt.Println(ev.Instance, "done: agreed", ok, "on", v)
			node.Close() // ends the feed
		}
	}
	// Output:
	// report-1 started
	// sensor 0: 000000000221 (round 4)
	// sensor 2: 000000000221 (round 4)
	// sensor 3: 000000000221 (round 4)
	// sensor 4: 000000000221 (round 4)
	// sensor 5: 000000000221 (round 4)
	// sensor 7: 000000000221 (round 4)
	// sensor 8: 000000000221 (round 4)
	// report-1 done: agreed true on 000000000221
}
