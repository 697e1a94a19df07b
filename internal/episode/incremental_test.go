package episode

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"semitri/internal/geo"
	"semitri/internal/gps"
)

// randomTrajectory generates a trajectory alternating stationary dwells and
// travel bursts, with jitter that exercises absorption (short moving blips
// inside stops) and demotion (stationary phases too short or too spread to
// validate).
func randomTrajectory(seed int64, n int) *gps.RawTrajectory {
	rng := rand.New(rand.NewSource(seed))
	t := time.Date(2026, 5, 2, 8, 0, 0, 0, time.UTC)
	pos := geo.Pt(1000, 1000)
	recs := make([]gps.Record, 0, n)
	mode := rng.Intn(2) // 0 = dwell, 1 = travel
	left := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		if left == 0 {
			mode = 1 - mode
			left = 1 + rng.Intn(40)
		}
		left--
		var step float64
		if mode == 0 {
			step = rng.Float64() * 8 // mostly stationary, sometimes a blip
			if rng.Float64() < 0.1 {
				step = 30 + rng.Float64()*40
			}
		} else {
			step = 60 + rng.Float64()*120
		}
		ang := rng.Float64() * 2 * math.Pi
		pos = geo.Pt(pos.X+step*math.Cos(ang), pos.Y+step*math.Sin(ang))
		t = t.Add(time.Duration(20+rng.Intn(30)) * time.Second)
		recs = append(recs, gps.Record{ObjectID: "obj", Position: pos, Time: t})
	}
	return &gps.RawTrajectory{ID: "obj-T0000", ObjectID: "obj", Records: recs}
}

func episodesEqual(t *testing.T, want, got []*Episode, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d episodes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: episode %d differs:\n got  %+v\n want %+v", label, i, *got[i], *want[i])
		}
	}
}

func runTracker(t *testing.T, tr *gps.RawTrajectory, cfg Config) []*Episode {
	t.Helper()
	tk, err := NewTracker(tr.ID, tr.ObjectID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Episode
	for _, r := range tr.Records {
		eps, err := tk.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, eps...)
	}
	tail, err := tk.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tail...)
}

func TestTrackerMatchesDetect(t *testing.T) {
	configs := map[string]Config{
		"default": DefaultConfig(),
		"vehicle": VehicleConfig(),
		"no-absorption": {
			SpeedThreshold: 1.0, MinStopDuration: 3 * time.Minute, StopRadius: 100, MinMoveRecords: 0,
		},
		"tight-radius": {
			SpeedThreshold: 1.0, MinStopDuration: time.Minute, StopRadius: 15, MinMoveRecords: 3,
		},
	}
	for name, cfg := range configs {
		for seed := int64(1); seed <= 25; seed++ {
			tr := randomTrajectory(seed, 200+int(seed)*17)
			want, err := Detect(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runTracker(t, tr, cfg)
			episodesEqual(t, want, got, name)
			if err := ValidateSequence(tr, got); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestTrackerTinyTrajectories(t *testing.T) {
	cfg := DefaultConfig()
	for n := 1; n <= 5; n++ {
		tr := randomTrajectory(99, n)
		want, err := Detect(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		episodesEqual(t, want, runTracker(t, tr, cfg), "tiny")
	}
}

// TestTrackerTailCoversSuffix: online episodes are contiguous, and the tail
// Finish emits covers exactly the records they left unemitted.
func TestTrackerTailCoversSuffix(t *testing.T) {
	cfg := DefaultConfig()
	tr := randomTrajectory(4, 300)
	tk, err := NewTracker(tr.ID, tr.ObjectID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i, r := range tr.Records {
		eps, err := tk.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			if ep.StartIdx != covered {
				t.Fatalf("record %d: emitted episode starts at %d, want %d", i, ep.StartIdx, covered)
			}
			covered = ep.EndIdx + 1
		}
	}
	tail, err := tk.Finish()
	if err != nil {
		t.Fatal(err)
	}
	last := len(tr.Records) - 1
	if covered > last {
		t.Fatalf("all %d records emitted online; the test trajectory must leave a tail", len(tr.Records))
	}
	if len(tail) == 0 || tail[0].StartIdx != covered || tail[len(tail)-1].EndIdx != last {
		t.Fatalf("tail = %d episodes, want [%d,%d] covered", len(tail), covered, last)
	}
	if _, err := tk.Add(tr.Records[0]); err == nil {
		t.Fatal("Add after Finish should fail")
	}
}

func TestTrackerEmitsBeforeFinish(t *testing.T) {
	// A trajectory with clear long stops must emit episodes online, not only
	// at Finish time.
	cfg := DefaultConfig()
	tr := randomTrajectory(11, 500)
	tk, err := NewTracker(tr.ID, tr.ObjectID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	online := 0
	for _, r := range tr.Records {
		eps, err := tk.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		online += len(eps)
	}
	if online == 0 {
		t.Fatal("tracker never emitted an episode before Finish")
	}
}
