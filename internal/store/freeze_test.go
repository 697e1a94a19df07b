package store

import (
	"slices"
	"testing"
)

// TestCollectTailHoldsBackTrajectoryPastCapturedRecords pins the freeze's
// records-first rule: a trajectory whose range reaches past the records the
// freeze captured for its object (they arrived after the record runs were
// walked) is not emitted, so a segment never holds a range over records it
// lacks. The next freeze emits it.
func TestCollectTailHoldsBackTrajectoryPastCapturedRecords(t *testing.T) {
	s := NewSharded(4)
	for key, stripe := range map[string]int{"early": 0, "b": 1, "a-T0": 3} {
		if s.shardFor(key) != s.shards[stripe] {
			t.Fatalf("%q is not in stripe %d; the test needs the walk order early < b's records < a-T0", key, stripe)
		}
	}
	putSampleTrajectory(t, s, "early", "d", 3)
	s.PutRecords(sampleTrajectory("", "b", 2).Records)
	late := true
	emitted := func() []string {
		var ids []string
		_, err := s.CollectTail(func(m Mutation) error {
			if m.Op != MutPutTrajectory {
				return nil
			}
			ids = append(ids, m.TrajectoryID)
			if late {
				// Under stripe 0's read lock, after every record run was
				// emitted: b grows and a trajectory covers all of it.
				late = false
				pos := s.PutRecords(sampleTrajectory("", "b", 2).Records)
				if err := s.PutTrajectory("a-T0", "b", 0, pos+2); err != nil {
					t.Error(err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if got := emitted(); !slices.Equal(got, []string{"early"}) {
		t.Fatalf("first freeze emitted trajectories %v, want only early", got)
	}
	if got := emitted(); !slices.Equal(got, []string{"early", "a-T0"}) {
		t.Fatalf("next freeze emitted trajectories %v, want early and a-T0", got)
	}
}
