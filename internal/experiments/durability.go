package experiments

import (
	"fmt"
	"os"
	"time"

	"semitri"
	"semitri/internal/segment"
	"semitri/internal/store"
	"semitri/internal/workload"
)

// DurabilityOverhead measures what the write-ahead log costs the streaming
// hot path and what recovery buys back: the same people workload is
// streamed through a WAL-off pipeline and a WAL-on one (group-commit
// fsync), reporting ns/record for both and the relative overhead; the
// resulting directory is then recovered — pure log replay, and again after
// a checkpoint (segments + tail) — with the rebuilt store verified against
// the live one. This is not a paper figure: the paper delegates durability
// to PostgreSQL; the row documents that the reproduction's own durability
// layer keeps the online path within budget (expected: group commit within
// ~25% of WAL-off).
func DurabilityOverhead(env *Env) (*Table, error) {
	// A longer feed than most experiments use: durability has a fixed
	// end-of-stream cost (the close-time sync of the last group-commit
	// window), and the steady-state per-record overhead is the number that
	// matters, so the run must dwarf the fixed part.
	cfg := workload.DefaultPeopleConfig(4, env.scaleInt(3), env.Seed+41)
	ds, err := workload.GeneratePeople(env.City, cfg)
	if err != nil {
		return nil, err
	}
	records := ds.Records()
	if len(records) == 0 {
		return nil, fmt.Errorf("durability: empty workload")
	}

	// streamRun ingests the workload and reports two per-record figures:
	// the hot path alone (the Add loop — steady-state serving cost) and the
	// whole ingest including Close (which for a durable pipeline is also a
	// durability barrier: the tail annotations plus a final WAL sync).
	streamRun := func(d semitri.Durability) (hotNs, totalNs float64, p *semitri.Pipeline, err error) {
		pcfg := semitri.DefaultConfig()
		pcfg.Durability = d
		p, err = semitri.New(semitri.Sources{
			Landuse: env.City.Landuse, Roads: env.City.Roads, POIs: env.City.POIs,
		}, pcfg)
		if err != nil {
			return 0, 0, nil, err
		}
		sp := p.NewStream()
		start := time.Now()
		for _, r := range records {
			if _, err := sp.Add(r); err != nil {
				return 0, 0, nil, err
			}
		}
		hot := time.Since(start)
		if _, err := sp.Close(); err != nil {
			return 0, 0, nil, err
		}
		total := time.Since(start)
		n := float64(len(records))
		return float64(hot.Nanoseconds()) / n, float64(total.Nanoseconds()) / n, p, nil
	}

	// Interleaved best-of-N passes: one ingest pass is at the mercy of
	// scheduler and GC noise, and the overhead ratio is the headline number,
	// so the two configurations alternate (any machine-load drift hits both)
	// and each side reports its fastest pass. Every pass gets a fresh
	// pipeline; every durable pass gets a fresh log directory.
	const passes = 4
	root, err := os.MkdirTemp("", "semitri-durability-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	minPos := func(dst *float64, v float64) {
		if *dst == 0 || v < *dst {
			*dst = v
		}
	}
	var offHot, offTotal, onHot, onTotal float64
	var p *semitri.Pipeline // last durable pipeline, kept for recovery checks
	var dir string
	for i := 0; i < passes; i++ {
		hot, total, off, err := streamRun(semitri.Durability{})
		if err != nil {
			return nil, err
		}
		_ = off.Close()
		minPos(&offHot, hot)
		minPos(&offTotal, total)
		d := semitri.Durability{Dir: fmt.Sprintf("%s/run-%d", root, i)}
		hot, total, pipe, err := streamRun(d)
		if err != nil {
			return nil, err
		}
		minPos(&onHot, hot)
		minPos(&onTotal, total)
		// Keep the last durable run for the recovery verification and release
		// the superseded one (its WAL goroutines and file handle).
		if p != nil {
			if err := p.Close(); err != nil {
				return nil, err
			}
		}
		p, dir = pipe, d.Dir
	}
	live := p.Store()

	verify := func(rec recovered) error {
		if rec.st.RecordCount() != live.RecordCount() || rec.st.StructuredCount() != live.StructuredCount() {
			return fmt.Errorf("durability: recovered %d records / %d structured, live %d / %d",
				rec.st.RecordCount(), rec.st.StructuredCount(), live.RecordCount(), live.StructuredCount())
		}
		ls, lm := live.EpisodeCounts()
		rs, rm := rec.st.EpisodeCounts()
		if ls != rs || lm != rm {
			return fmt.Errorf("durability: recovered %d/%d episodes, live %d/%d", rs, rm, ls, lm)
		}
		return nil
	}

	// Pure log replay: what a kill -9 restart pays before a checkpoint ran.
	replay, err := timeRecover(dir)
	if err != nil {
		return nil, err
	}
	defer replay.tier.Close()
	if err := verify(replay); err != nil {
		return nil, err
	}
	// Checkpoint, then recover again: segment fold + (near-empty) tail.
	if err := p.Close(); err != nil {
		return nil, err
	}
	fromSegs, err := timeRecover(dir)
	if err != nil {
		return nil, err
	}
	defer fromSegs.tier.Close()
	if err := verify(fromSegs); err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "durability",
		Title: "durability: WAL group commit overhead and recovery (streaming ingest)",
		Notes: []string{
			fmt.Sprintf("workload: %d records, %d objects; WAL frames are group-committed (one fsync per flush interval)", len(records), len(ds.Objects)),
			"hot = the per-record Add loop (steady-state serving); total additionally includes stream Close — tail annotation plus, with the WAL on, the final durability barrier (sync of the last group-commit window)",
			"expectation: WAL-on streaming stays within ~25% of WAL-off ns/record; recovery is exact (verified against the live store)",
		},
	}
	tbl.Rows = append(tbl.Rows,
		Row{
			Label:   "stream ingest, wal off",
			Columns: []string{"hot_ns", "total_ns"},
			Values:  map[string]float64{"hot_ns": offHot, "total_ns": offTotal},
		},
		Row{
			Label:   "stream ingest, wal on (group commit)",
			Columns: []string{"hot_ns", "total_ns", "overhead_pct", "total_overhead_pct"},
			Values: map[string]float64{
				"hot_ns":             onHot,
				"total_ns":           onTotal,
				"overhead_pct":       (onHot/offHot - 1) * 100,
				"total_overhead_pct": (onTotal/offTotal - 1) * 100,
			},
		},
		Row{
			Label:   "recover: log replay only",
			Columns: []string{"ms", "frames", "records"},
			Values: map[string]float64{
				"ms":      replay.ms,
				"frames":  float64(replay.stats.WAL.FramesApplied),
				"records": float64(replay.st.RecordCount()),
			},
		},
		Row{
			Label:   "recover: segments + tail",
			Columns: []string{"ms", "frames", "records"},
			Values: map[string]float64{
				"ms":      fromSegs.ms,
				"frames":  float64(fromSegs.stats.WAL.FramesApplied),
				"records": float64(fromSegs.st.RecordCount()),
			},
		},
	)
	return tbl, nil
}

type recovered struct {
	st    *store.Store
	tier  *segment.Tier // backs st's frozen rows; close when done with st
	stats segment.RecoverStats
	ms    float64
}

func timeRecover(dir string) (recovered, error) {
	start := time.Now()
	st, tier, stats, err := segment.Recover(dir, 0)
	if err != nil {
		return recovered{}, err
	}
	return recovered{st: st, tier: tier, stats: stats, ms: float64(time.Since(start).Microseconds()) / 1000}, nil
}
