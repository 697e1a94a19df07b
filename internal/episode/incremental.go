package episode

import (
	"errors"

	"semitri/internal/gps"
)

// Tracker is the incremental counterpart of Detect: it consumes the records
// of ONE raw trajectory as they arrive and emits each episode as soon as it
// is final, i.e. as soon as no future record can change its kind or extent
// under the batch algorithm. Feeding a trajectory's records through Add and
// calling Finish yields exactly the episode sequence Detect returns on the
// full trajectory.
//
// Finality is subtle because the batch algorithm looks both ways: a short
// move run between two stationary runs is absorbed into a stop candidate,
// and a stop candidate failing the duration/radius policies is demoted and
// merged into the neighbouring moves. The tracker therefore advances its
// emission frontier only across validated stops: a stop candidate (after
// absorbing short interruptions) becomes final once it is followed by a move
// run that can no longer be absorbed (>= MinMoveRecords records with final
// labels), at which point the preceding move — everything since the last
// emitted episode — is final too.
//
// A Tracker follows one trajectory at a time and is not safe for concurrent
// use. Reset starts the next trajectory on the same buffers, so an owner
// that keeps one Tracker per moving object stops allocating once the
// buffers fit the object's longest trajectory.
type Tracker struct {
	cfg          Config
	trajectoryID string
	objectID     string

	records []gps.Record
	speeds  []float64 // speeds[i]: between records i and i+1
	labels  []bool    // final stationary labels for records [0, len(labels))
	emitted int       // records [0, emitted) are covered by emitted episodes
	runs    []irun    // candidate runs over records [emitted, len(labels))

	finished bool
}

// irun is a candidate run over a contiguous record range (global indices).
type irun struct {
	kind     Kind
	from, to int
}

// NewTracker returns a tracker for one trajectory of the given object. The
// trajectory id may be unknown while the trajectory is still open; SetIDs
// backfills it on episodes emitted later (already-returned episodes are the
// caller's to fix up).
func NewTracker(trajectoryID, objectID string, cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, trajectoryID: trajectoryID, objectID: objectID}, nil
}

// Reset makes the tracker follow a new trajectory from its first record,
// keeping the capacity of its buffers.
func (tk *Tracker) Reset(trajectoryID, objectID string) {
	*tk = Tracker{
		cfg:          tk.cfg,
		trajectoryID: trajectoryID,
		objectID:     objectID,
		records:      tk.records[:0],
		speeds:       tk.speeds[:0],
		labels:       tk.labels[:0],
		runs:         tk.runs[:0],
	}
}

// SetIDs updates the trajectory/object ids stamped on episodes emitted from
// now on.
func (tk *Tracker) SetIDs(trajectoryID, objectID string) {
	tk.trajectoryID = trajectoryID
	tk.objectID = objectID
}

// RecordCount returns the number of records consumed so far.
func (tk *Tracker) RecordCount() int { return len(tk.records) }

// Add consumes the trajectory's next record and returns the episodes that
// became final, in order. Records must arrive in non-decreasing time order.
func (tk *Tracker) Add(r gps.Record) ([]*Episode, error) {
	if tk.finished {
		return nil, errors.New("episode: tracker already finished")
	}
	tk.records = append(tk.records, r)
	n := len(tk.records)
	if n < 2 {
		return nil, nil
	}
	prev := tk.records[n-2]
	dt := r.Time.Sub(prev.Time).Seconds()
	speed := 0.0
	if dt > 0 {
		speed = r.Position.DistanceTo(prev.Position) / dt
	} else if dt < 0 {
		return nil, errors.New("episode: record timestamp goes backwards")
	}
	tk.speeds = append(tk.speeds, speed)
	// Record n-2's label is now final: the batch algorithm labels it with
	// speeds[n-3] alone when it is the first record, otherwise with the mean
	// of its surrounding speeds.
	tk.labels = append(tk.labels, tk.finalLabel(n-2))
	tk.extendRuns(n-2, tk.labels[n-2])
	return tk.advance(), nil
}

// finalLabel computes the batch stationary label of record i, which requires
// speeds[i] (i.e. record i+1) to exist.
func (tk *Tracker) finalLabel(i int) bool {
	var s float64
	if i == 0 {
		s = tk.speeds[0]
	} else {
		s = (tk.speeds[i-1] + tk.speeds[i]) / 2
	}
	return s < tk.cfg.SpeedThreshold
}

// extendRuns appends record index i with the given label to the candidate
// run list.
func (tk *Tracker) extendRuns(i int, stationary bool) {
	kind := Move
	if stationary {
		kind = Stop
	}
	if n := len(tk.runs); n > 0 && tk.runs[n-1].kind == kind {
		tk.runs[n-1].to = i
		return
	}
	tk.runs = append(tk.runs, irun{kind: kind, from: i, to: i})
}

// advance moves the emission frontier across every stop whose fate is now
// decided, returning the emitted episodes.
func (tk *Tracker) advance() []*Episode {
	var out []*Episode
	for {
		// Locate the first stop candidate of the unemitted suffix (index 0
		// or 1: runs alternate, and the suffix starts with at most one
		// pending move).
		si := -1
		for i := range tk.runs {
			if tk.runs[i].kind == Stop {
				si = i
				break
			}
		}
		if si < 0 {
			return out
		}
		// Walk the super-stop: stop candidates glued by absorbed short move
		// interruptions, as the batch absorption step produces.
		j := si
		for {
			if j == len(tk.runs)-1 {
				return out // the stop candidate may still grow
			}
			next := tk.runs[j+1] // a move run, by alternation
			if tk.cfg.MinMoveRecords > 1 && next.to-next.from+1 < tk.cfg.MinMoveRecords {
				if j+1 == len(tk.runs)-1 {
					return out // short move: may still grow or be absorbed
				}
				j += 2 // absorbed between two stop candidates
				continue
			}
			break // the following move can no longer be absorbed
		}
		from, to := tk.runs[si].from, tk.runs[j].to
		dur := tk.records[to].Time.Sub(tk.records[from].Time)
		if dur >= tk.cfg.MinStopDuration && recordsRadius(tk.records, from, to) <= tk.cfg.StopRadius {
			// Validated: the stop and everything before it are final.
			if si > 0 {
				out = append(out, tk.build(Move, tk.runs[0].from, tk.runs[si-1].to))
			}
			out = append(out, tk.build(Stop, from, to))
			tk.runs = append(tk.runs[:0], tk.runs[j+1:]...)
			tk.emitted = to + 1
		} else {
			// Demoted: the failed candidate melts into the surrounding moves
			// and the combined move stays open.
			tk.runs[0] = irun{kind: Move, from: tk.runs[0].from, to: tk.runs[j+1].to}
			tk.runs = append(tk.runs[:1], tk.runs[j+2:]...)
		}
	}
}

func (tk *Tracker) build(kind Kind, from, to int) *Episode {
	return buildEpisodeRecords(tk.trajectoryID, tk.objectID, tk.records, kind, from, to)
}

// Finish closes the trajectory and returns the remaining episodes (the open
// move and/or trailing stop candidates), completing the exact Detect
// sequence. The tracker accepts no further records.
func (tk *Tracker) Finish() ([]*Episode, error) {
	if tk.finished {
		return nil, errors.New("episode: tracker already finished")
	}
	tk.finished = true
	if len(tk.records) == 0 {
		return nil, errors.New("episode: empty trajectory")
	}
	if len(tk.records) == 1 {
		return []*Episode{tk.build(Stop, 0, 0)}, nil
	}
	runs := tk.closingRuns()
	var out []*Episode
	for _, r := range runs {
		out = append(out, tk.build(r.kind, r.from, r.to))
	}
	return out, nil
}

// closingRuns labels the last record, then applies the batch absorption,
// validation and merge steps to the unemitted suffix runs. It does not
// modify tracker state.
func (tk *Tracker) closingRuns() []irun {
	runs := append([]irun(nil), tk.runs...)
	// The last record's label is final now: the batch algorithm labels it
	// with the last speed alone.
	last := len(tk.records) - 1
	kind := Move
	if tk.speeds[len(tk.speeds)-1] < tk.cfg.SpeedThreshold {
		kind = Stop
	}
	if n := len(runs); n > 0 && runs[n-1].kind == kind {
		runs[n-1].to = last
	} else {
		runs = append(runs, irun{kind: kind, from: last, to: last})
	}
	// Batch step 1: absorb short move interruptions between two stop
	// candidates. The first suffix run is never absorbable (it either starts
	// the trajectory or follows an emitted stop across an immune move).
	if tk.cfg.MinMoveRecords > 1 {
		for i := range runs {
			r := &runs[i]
			if r.kind == Move && r.to-r.from+1 < tk.cfg.MinMoveRecords &&
				i > 0 && runs[i-1].kind == Stop &&
				i < len(runs)-1 && runs[i+1].kind == Stop {
				r.kind = Stop
			}
		}
		runs = mergeAdjacentRuns(runs)
	}
	// Batch step 2: validate stop candidates, demoting failures to moves.
	for i := range runs {
		r := &runs[i]
		if r.kind == Stop {
			dur := tk.records[r.to].Time.Sub(tk.records[r.from].Time)
			if dur < tk.cfg.MinStopDuration || recordsRadius(tk.records, r.from, r.to) > tk.cfg.StopRadius {
				r.kind = Move
			}
		}
	}
	return mergeAdjacentRuns(runs)
}

func mergeAdjacentRuns(rs []irun) []irun {
	out := rs[:0:0]
	for _, r := range rs {
		if len(out) > 0 && out[len(out)-1].kind == r.kind {
			out[len(out)-1].to = r.to
			continue
		}
		out = append(out, r)
	}
	return out
}
