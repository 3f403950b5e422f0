package anonconsensus_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"anonconsensus"
)

func batchItems() []anonconsensus.BatchItem {
	var items []anonconsensus.BatchItem
	for seed := int64(0); seed < 8; seed++ {
		items = append(items, anonconsensus.BatchItem{
			Proposals: []anonconsensus.Value{
				anonconsensus.NumValue(seed), anonconsensus.NumValue(seed + 1), anonconsensus.NumValue(seed + 2),
			},
			Opts: []anonconsensus.Option{anonconsensus.WithSeed(seed)},
		})
	}
	return items
}

func TestRunBatchMatchesSimulate(t *testing.T) {
	items := batchItems()
	want := make([]*anonconsensus.Result, len(items))
	for i, item := range items {
		res, err := anonconsensus.RunOnceForTest(anonconsensus.NewSimTransport(), item.Proposals,
			anonconsensus.WithEnv(anonconsensus.EnvES), anonconsensus.WithGST(6), anonconsensus.WithSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		got, err := anonconsensus.RunBatch(context.Background(), items,
			anonconsensus.WithEnv(anonconsensus.EnvES),
			anonconsensus.WithGST(6),
			anonconsensus.WithParallelism(par),
		)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Decisions, want[i].Decisions) || got[i].Rounds != want[i].Rounds {
				t.Errorf("parallelism %d item %d: batch result diverged from Node.Run on the sim transport:\n got %+v\nwant %+v",
					par, i, got[i], want[i])
			}
		}
	}
}

func TestRunBatchItemErrors(t *testing.T) {
	items := batchItems()
	items[2].Proposals = nil // invalid: no proposals
	_, err := anonconsensus.RunBatch(context.Background(), items)
	if err == nil || !strings.Contains(err.Error(), "batch item 2") {
		t.Errorf("err = %v, want a batch item 2 validation error", err)
	}

	items = batchItems()
	items[5].Opts = append(items[5].Opts, anonconsensus.WithGST(-1))
	_, err = anonconsensus.RunBatch(context.Background(), items)
	if err == nil || !strings.Contains(err.Error(), "batch item 5") {
		t.Errorf("err = %v, want a batch item 5 option error", err)
	}

	// WithParallelism is batch-level; inside an item it must be rejected,
	// not silently ignored.
	items = batchItems()
	items[1].Opts = append(items[1].Opts, anonconsensus.WithParallelism(1))
	_, err = anonconsensus.RunBatch(context.Background(), items)
	if err == nil || !strings.Contains(err.Error(), "batch item 1") || !strings.Contains(err.Error(), "batch-level") {
		t.Errorf("err = %v, want a batch item 1 per-item-parallelism error", err)
	}
}

func TestRunBatchEmptyAndCancelled(t *testing.T) {
	results, err := anonconsensus.RunBatch(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%d err=%v", len(results), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = anonconsensus.RunBatch(ctx, batchItems())
	if err == nil {
		t.Fatal("cancelled batch must report an error")
	}
}

func TestWithParallelismValidation(t *testing.T) {
	if _, err := anonconsensus.RunBatch(context.Background(), batchItems(), anonconsensus.WithParallelism(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
	if _, err := anonconsensus.RunBatch(context.Background(), batchItems()[:1], anonconsensus.WithParallelism(0)); err != nil {
		t.Errorf("parallelism 0 (default) rejected: %v", err)
	}
}
