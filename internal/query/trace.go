package query

import "time"

// Trace is the EXPLAIN ANALYZE record of one executed statement: the plan
// that ran, per-stage wall time and row counts, the segment-prune decisions
// the scan path took (with the segment rule that refuted each pruned
// segment), and — for joins — the probe fan-out per worker and per access
// path. Traced execution returns exactly what untraced execution returns;
// the trace rides alongside. A nil *Trace threaded through the executor
// disables collection, which is how the hot path stays trace-free.
type Trace struct {
	// Kind is "query" or "join".
	Kind string `json:"kind"`
	// Plan is the executed plan rendered as Explain would show it.
	Plan string `json:"plan"`
	// Path is the chosen access path of a single-table query.
	Path string `json:"path,omitempty"`
	// PlanNs/ExecNs/TotalNs break the wall time into planning and execution.
	PlanNs  int64 `json:"plan_ns"`
	ExecNs  int64 `json:"exec_ns"`
	TotalNs int64 `json:"total_ns"`
	// Candidates counts index candidates examined; Returned counts matches
	// (or pairs) produced.
	Candidates int `json:"candidates"`
	Returned   int `json:"returned"`
	// Stages are the per-stage timings in execution order.
	Stages []TraceStage `json:"stages"`
	// Segments records, for scan-path execution over a tiered store, every
	// cold segment's keep/prune decision.
	Segments []SegmentDecision `json:"segments,omitempty"`
	// Workers, WorkerProbes and ProbePaths describe a join's probe fan-out:
	// pool size, probes handled per worker (parallel joins only), and probes
	// by access path.
	Workers      int            `json:"workers,omitempty"`
	WorkerProbes []int          `json:"worker_probes,omitempty"`
	ProbePaths   map[string]int `json:"probe_paths,omitempty"`
	// Build is the build side's sub-trace of a join.
	Build *Trace `json:"build,omitempty"`
}

// TraceStage is one timed execution stage.
type TraceStage struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
	Rows int    `json:"rows"`
}

// SegmentDecision is one cold segment's prune decision: kept, or pruned with
// the segment rule that refuted it (one of obs.PruneRules).
type SegmentDecision struct {
	Segment int    `json:"segment"`
	Pruned  bool   `json:"pruned"`
	Rule    string `json:"rule,omitempty"`
}

// stage appends a timed stage. Safe on a nil receiver, so the executor can
// call it unconditionally at stage boundaries that are off the hot path.
func (tr *Trace) stage(name string, start time.Time, rows int) {
	if tr == nil {
		return
	}
	tr.Stages = append(tr.Stages, TraceStage{Name: name, Ns: time.Since(start).Nanoseconds(), Rows: rows})
}

// addCandidates accumulates the examined-candidate count.
func (tr *Trace) addCandidates(n int) {
	if tr != nil {
		tr.Candidates += n
	}
}

// ExecuteTraced is ExecuteExplained plus a full execution trace.
func (e *Engine) ExecuteTraced(q Query) ([]Match, Plan, *Trace, error) {
	tr := &Trace{}
	out, p, err := e.execute(q, tr)
	if err != nil {
		return nil, Plan{}, nil, err
	}
	return out, p, tr, nil
}

// ExecuteJoinTraced is ExecuteJoinExplained plus a full execution trace: the
// build side's sub-trace (segment prune decisions included), probe wall time
// and the per-worker probe spread.
func (e *Engine) ExecuteJoinTraced(j Join) ([]JoinMatch, JoinPlan, *Trace, error) {
	tr := &Trace{Kind: "join"}
	out, jp, err := e.executeJoin(j, tr)
	if err != nil {
		return nil, JoinPlan{}, nil, err
	}
	return out, jp, tr, nil
}
