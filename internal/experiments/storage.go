package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"semitri"
	"semitri/internal/query"
	"semitri/internal/workload"
)

// StorageEngine measures the tiered storage engine (internal/segment): what
// an incremental checkpoint costs as the store grows, what segment-backed
// cold reads cost against the all-heap baseline, how long a restart from
// segments takes, and the process's peak RSS. The headline property is
// asserted, not just reported: checkpoint cost must track the tail written
// since the last checkpoint, not the total store size — the segment bytes of
// a constant-size tail must stay flat while the store grows, and freezing a
// small tail must stay far below the initial full freeze.
func StorageEngine(env *Env) (*Table, error) {
	dir, err := os.MkdirTemp("", "semitri-storage-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sources := semitri.Sources{
		Landuse: env.City.Landuse, Roads: env.City.Roads, POIs: env.City.POIs,
	}
	base := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	gen := func(users, days int, seed int64, start time.Time) (*workload.Dataset, error) {
		cfg := workload.DefaultPeopleConfig(users, days, seed)
		cfg.Start = start
		return workload.GeneratePeople(env.City, cfg)
	}

	tcfg := semitri.DefaultConfig()
	tcfg.Durability = semitri.Durability{Dir: dir, Fsync: "never"}
	tiered, err := semitri.New(sources, tcfg)
	if err != nil {
		return nil, err
	}
	defer tiered.Close()
	heap, err := semitri.New(sources, semitri.DefaultConfig())
	if err != nil {
		return nil, err
	}

	segBytes := func() int64 {
		var n int64
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "seg-") && filepath.Ext(e.Name()) == ".seg" {
				if fi, err := e.Info(); err == nil {
					n += fi.Size()
				}
			}
		}
		return n
	}
	// checkpoint freezes the heap tail into a new segment and reports the
	// wall time plus the bytes that segment added.
	checkpoint := func() (ms float64, newBytes int64, err error) {
		pre := segBytes()
		start := time.Now()
		if err := tiered.Checkpoint(); err != nil {
			return 0, 0, err
		}
		return float64(time.Since(start).Microseconds()) / 1000, segBytes() - pre, nil
	}
	ingestBoth := func(ds *workload.Dataset) error {
		if _, err := tiered.ProcessRecords(ds.Records()); err != nil {
			return err
		}
		_, err := heap.ProcessRecords(ds.Records())
		return err
	}

	// Initial bulk load: the first freeze pays for the whole store.
	baseDS, err := gen(6, max(2, env.scaleInt(4)), env.Seed+61, base)
	if err != nil {
		return nil, err
	}
	if err := ingestBoth(baseDS); err != nil {
		return nil, err
	}
	baseMs, baseBytes, err := checkpoint()
	if err != nil {
		return nil, err
	}
	if baseBytes == 0 {
		return nil, fmt.Errorf("storage: initial freeze wrote no segment")
	}

	// Steady state: a constant-size tail (one user-day, fresh objects, a
	// disjoint time span) checkpointed while the total store keeps growing.
	const rounds = 5
	var tailMs, tailBytes [rounds]float64
	var lastStart time.Time
	for r := 0; r < rounds; r++ {
		start := base.AddDate(0, 0, 30*(r+1))
		ds, err := gen(1, 1, env.Seed+100+int64(r), start)
		if err != nil {
			return nil, err
		}
		if err := ingestBoth(ds); err != nil {
			return nil, err
		}
		ms, nb, err := checkpoint()
		if err != nil {
			return nil, err
		}
		tailMs[r], tailBytes[r] = ms, float64(nb)
		if nb == 0 {
			return nil, fmt.Errorf("storage: round %d freeze wrote no segment", r)
		}
		lastStart = start
	}
	minB, maxB := tailBytes[0], tailBytes[0]
	minMs, maxMs := tailMs[0], tailMs[0]
	for r := 1; r < rounds; r++ {
		minB, maxB = min(minB, tailBytes[r]), max(maxB, tailBytes[r])
		minMs, maxMs = min(minMs, tailMs[r]), max(maxMs, tailMs[r])
	}
	// The assertions behind the acceptance criterion. Bytes are
	// deterministic: a constant tail must freeze into a near-constant
	// segment no matter how large the store already is, and far below the
	// full freeze. Time gets generous slack (it rides on bytes).
	if maxB > 3*minB {
		return nil, fmt.Errorf("storage: steady-state freeze bytes drift with store size: min=%.0f max=%.0f", minB, maxB)
	}
	if 4*maxB > float64(baseBytes) {
		return nil, fmt.Errorf("storage: small-tail freeze (%.0f B) not far below full freeze (%d B)", maxB, baseBytes)
	}
	if maxMs > 2*baseMs {
		return nil, fmt.Errorf("storage: small-tail checkpoint (%.1f ms) slower than the full freeze (%.1f ms)", maxMs, baseMs)
	}

	// Cold reads: the same queries against the mostly-frozen store and the
	// all-heap twin, answers verified identical. The windowed scan covers
	// only the last tail's time span, so footer pruning skips every other
	// segment; the full scan decodes everything.
	tieredEng, heapEng := tiered.QueryEngine(), heap.QueryEngine()
	timeQuery := func(e *query.Engine, q query.Query) (float64, []query.Match, error) {
		ms, err := e.Execute(q) // warm once, keep for verification
		if err != nil {
			return 0, nil, err
		}
		const iters = 20
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := e.Execute(q); err != nil {
				return 0, nil, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / iters, ms, nil
	}
	windowQ := query.Query{From: lastStart, To: lastStart.AddDate(0, 0, 2)}
	fullQ := query.Query{}
	rows := make([]Row, 0, 6)
	for _, c := range []struct {
		label string
		q     query.Query
	}{
		{"query: time-window scan (pruned)", windowQ},
		{"query: full scan (no pruning)", fullQ},
	} {
		heapNs, heapMs, err := timeQuery(heapEng, c.q)
		if err != nil {
			return nil, err
		}
		tierNs, tierMs, err := timeQuery(tieredEng, c.q)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(heapMs, tierMs) {
			return nil, fmt.Errorf("storage: %s: tiered answer diverges from all-heap (%d vs %d matches)",
				c.label, len(tierMs), len(heapMs))
		}
		rows = append(rows, Row{
			Label:   c.label,
			Columns: []string{"heap_ns", "tiered_ns", "matches"},
			Values: map[string]float64{
				"heap_ns": heapNs, "tiered_ns": tierNs, "matches": float64(len(heapMs)),
			},
		})
	}

	// Restart: close the tiered pipeline and recover from segments + WAL
	// alone, verifying counts against the all-heap twin.
	liveRecords := tiered.Store().RecordCount()
	if err := tiered.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	re, err := semitri.New(sources, tcfg)
	if err != nil {
		return nil, err
	}
	recoverMs := float64(time.Since(start).Microseconds()) / 1000
	rs := re.Recovery()
	hs := heap.Store()
	if re.Store().RecordCount() != hs.RecordCount() || re.Store().RecordCount() != liveRecords ||
		re.Store().StructuredCount() != hs.StructuredCount() {
		err := fmt.Errorf("storage: recovered %d records / %d structured, want %d / %d",
			re.Store().RecordCount(), re.Store().StructuredCount(), hs.RecordCount(), hs.StructuredCount())
		re.Close()
		return nil, err
	}
	if err := re.Close(); err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "storage",
		Title: "storage: tiered engine — incremental checkpoints, cold reads, recovery",
		Notes: []string{
			"asserted: steady-state freeze bytes stay flat while the store grows (cost tracks the tail, not the total), and every tiered answer equals the all-heap answer",
			"the time-window scan covers only the newest segment's span, so footer pruning skips the rest; the full scan decodes every segment",
			fmt.Sprintf("store at recovery: %d records across %d cold segments", liveRecords, rs.ColdSegments),
		},
	}
	tbl.Rows = append(tbl.Rows,
		Row{
			Label:   "checkpoint: initial full freeze",
			Columns: []string{"ms", "mb"},
			Values:  map[string]float64{"ms": baseMs, "mb": float64(baseBytes) / (1 << 20)},
		},
		Row{
			Label:   "checkpoint: steady state (const tail, growing store)",
			Columns: []string{"min_ms", "max_ms", "min_kb", "max_kb"},
			Values: map[string]float64{
				"min_ms": minMs, "max_ms": maxMs,
				"min_kb": minB / 1024, "max_kb": maxB / 1024,
			},
		},
	)
	tbl.Rows = append(tbl.Rows, rows...)
	tbl.Rows = append(tbl.Rows,
		Row{
			Label:   "recovery-time: restart from segments + wal",
			Columns: []string{"ms", "cold_segments", "wal_frames"},
			Values: map[string]float64{
				"ms":            recoverMs,
				"cold_segments": float64(rs.ColdSegments),
				"wal_frames":    float64(rs.FramesApplied),
			},
		},
		Row{
			Label:   "peak-RSS: process high-water mark",
			Columns: []string{"mb"},
			Values:  map[string]float64{"mb": peakRSSBytes() / (1 << 20)},
		},
	)
	return tbl, nil
}
