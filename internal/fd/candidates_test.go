package fd

import (
	"reflect"
	"testing"

	"anonconsensus/internal/env"
	"anonconsensus/internal/giraf"
	"anonconsensus/internal/sim"
	"anonconsensus/internal/values"
)

// driveRounds feeds a scripted heard-set sequence to a fresh candidate and
// returns the trusted-set outputs round by round.
func driveRounds(c SigmaCandidate, id, n int, script [][]int) [][]int {
	c.Init(id, n)
	out := make([][]int, len(script))
	for k, heard := range script {
		out[k] = c.Round(k+1, heard)
	}
	return out
}

func TestTimeoutQuorumConvergenceTable(t *testing.T) {
	// Table-driven convergence over silence patterns: the trusted set must
	// track the window exactly — a peer stays trusted for Window-1 silent
	// rounds and drops on the Window-th.
	tests := []struct {
		name   string
		window int
		script [][]int
		want   [][]int
	}{
		{
			name:   "peer goes silent",
			window: 2,
			script: [][]int{{0, 1}, {0}, {0}, {0}},
			want:   [][]int{{0, 1}, {0, 1}, {0}, {0}},
		},
		{
			name:   "window one drops immediately",
			window: 1,
			script: [][]int{{0, 1}, {0}, {0, 1}},
			want:   [][]int{{0, 1}, {0}, {0, 1}},
		},
		{
			name:   "silence then recovery",
			window: 3,
			script: [][]int{{0, 1}, {0}, {0}, {0}, {0, 1}},
			want:   [][]int{{0, 1}, {0, 1}, {0, 1}, {0}, {0, 1}},
		},
		{
			name:   "self only, never heard anyone",
			window: 2,
			script: [][]int{{0}, {0}},
			want:   [][]int{{0}, {0}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := driveRounds(&TimeoutQuorum{Window: tt.window}, 0, 2, tt.script)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("outputs %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTimeoutQuorumDefaultWindow(t *testing.T) {
	c := &TimeoutQuorum{}
	c.Init(0, 2)
	if c.Window != 3 {
		t.Errorf("default window = %d, want 3", c.Window)
	}
}

func TestMajorityStickConvergenceTable(t *testing.T) {
	// n=3, majority 2: the candidate refuses to shrink below a majority —
	// even a process silent far beyond the threshold survives while it is
	// needed to fill the quorum, which is exactly the instinct Prop. 4
	// kills (the kept set need not intersect another process's).
	script := [][]int{
		{0, 1, 2}, // everyone alive
		{0},       // 1 and 2 go silent
		{0}, {0}, {0}, {0}, {0},
	}
	got := driveRounds(&MajorityStick{Silence: 3}, 0, 3, script)
	for k, trusted := range got {
		if len(trusted) < 2 {
			t.Errorf("round %d: trusted %v shrank below the majority floor", k+1, trusted)
		}
		if !containsID(trusted, 0) {
			t.Errorf("round %d: self missing from %v", k+1, trusted)
		}
	}
	// The round-1 output must trust everyone it heard.
	if !reflect.DeepEqual(got[0], []int{0, 1, 2}) {
		t.Errorf("round 1 trusted %v, want [0 1 2]", got[0])
	}
}

func TestEagerSelfConvergenceTable(t *testing.T) {
	script := [][]int{{0, 1, 2}, {1}, {}, {2}}
	want := [][]int{{0, 1, 2}, {0, 1}, {0}, {0, 2}}
	got := driveRounds(&EagerSelf{}, 0, 3, script)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outputs %v, want %v", got, want)
	}
}

func containsID(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runOmegaTrackers runs n trackers under pol with the given crash schedule
// and returns them.
func runOmegaTrackers(t *testing.T, n, rounds int, pol env.Policy, crashes map[int]int) []*OmegaTracker {
	t.Helper()
	trackers := make([]*OmegaTracker, n)
	_, err := sim.Run(sim.Config{
		N: n,
		Automaton: func(i int) giraf.Automaton {
			trackers[i] = NewOmegaTracker(i)
			return trackers[i]
		},
		Policy:    pol,
		Scenario:  &env.Scenario{Crashes: crashes},
		MaxRounds: rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trackers
}

func TestOmegaTrackerCrashPatternTable(t *testing.T) {
	// Table-driven crash patterns: survivors must converge on a common
	// leader that is not a crashed process.
	tests := []struct {
		name    string
		n       int
		crashes map[int]int
		gst     int
		src     int
	}{
		{"leader crashes early", 4, map[int]int{0: 5}, 8, 2},
		{"two crashes", 5, map[int]int{1: 3, 4: 12}, 10, 2},
		{"crash after convergence", 4, map[int]int{3: 60}, 8, 0},
		{"all but one crash", 3, map[int]int{0: 4, 2: 9}, 6, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			trackers := runOmegaTrackers(t, tt.n, 150,
				&env.ESS{GST: tt.gst, StableSource: tt.src, Pre: env.MS{Seed: 13}}, tt.crashes)
			leader := -1
			for i, tr := range trackers {
				if _, crashed := tt.crashes[i]; crashed {
					continue // a crashed tracker's last estimate is stale by design
				}
				got := tr.Leader()
				if _, crashedLeader := tt.crashes[got]; crashedLeader && got != i {
					// Trusting a crashed peer forever would be a completeness
					// failure; the min-merge must have erased its counters.
					t.Errorf("survivor %d still elects crashed process %d", i, got)
				}
				if leader < 0 {
					leader = got
				} else if got != leader {
					t.Errorf("survivors disagree: %d elects %d, others %d", i, got, leader)
				}
			}
		})
	}
}

// stubInbox fabricates an inbox for direct Compute calls.
type stubInbox struct {
	round int
	msgs  []giraf.Payload
}

func (s stubInbox) Round(k int) []giraf.Payload {
	if k == s.round {
		return s.msgs
	}
	return nil
}
func (s stubInbox) Fresh() []giraf.Payload { return nil }
func (s stubInbox) CurrentRound() int      { return s.round }

// junkPayload is a payload of a foreign algorithm family.
type junkPayload struct{}

func (junkPayload) PayloadKey() string { return "junk!" }
func (p junkPayload) PayloadFingerprint() values.Fingerprint {
	return values.FingerprintString(p.PayloadKey())
}
func (p junkPayload) PayloadEncodedSize() int { return len(p.PayloadKey()) }

func TestOmegaTrackerMinMergeTable(t *testing.T) {
	// Direct Compute calls pin the min-merge semantics: a counter survives
	// only as high as the least informed sender reports it, an ID absent
	// from any table is deleted, and foreign payloads are skipped.
	o := NewOmegaTracker(0)
	o.Initialize()
	_, dec := o.Compute(1, stubInbox{round: 1, msgs: []giraf.Payload{
		junkPayload{},
		HeartbeatPayload{ID: 0, Counts: map[int]int{0: 4, 1: 9, 2: 2}},
		HeartbeatPayload{ID: 1, Counts: map[int]int{0: 6, 1: 3}}, // no entry for 2 → delete
	}})
	if dec.Decided {
		t.Fatal("Ω tracker must never decide")
	}
	// Min-merge: 0→4, 1→3, 2 deleted; then bump both heartbeat senders.
	if got := o.Count(0); got != 5 {
		t.Errorf("count(0) = %d, want min(4,6)+1 = 5", got)
	}
	if got := o.Count(1); got != 4 {
		t.Errorf("count(1) = %d, want min(9,3)+1 = 4", got)
	}
	if got := o.Count(2); got != 0 {
		t.Errorf("count(2) = %d, want 0 (erased by min-merge)", got)
	}
	// Leader: maximal count (0 with 5), not self-bias.
	if got := o.Leader(); got != 0 {
		t.Errorf("leader = %d, want 0", got)
	}
}

func TestHeartbeatPayloadKeyCanonical(t *testing.T) {
	a := HeartbeatPayload{ID: 3, Counts: map[int]int{2: 1, 0: 7, 9: 4}}
	b := HeartbeatPayload{ID: 3, Counts: map[int]int{9: 4, 0: 7, 2: 1}}
	if a.PayloadKey() != b.PayloadKey() {
		t.Error("identical payloads with different map orders must share a key")
	}
	if a.PayloadKey() != "hb!3!0=7;2=1;9=4;" {
		t.Errorf("key %q is not the canonical sorted form", a.PayloadKey())
	}
	if (HeartbeatPayload{ID: 1}).PayloadKey() == (HeartbeatPayload{ID: 2}).PayloadKey() {
		t.Error("distinct IDs must yield distinct keys")
	}
}
