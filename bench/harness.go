package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"semitri"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/query"
)

// env is what one workload run is given.
type env struct {
	seed    int64
	scale   float64
	seconds float64 // measuring budget of the run, split between its timed phases
	outDir  string  // scratch directories and result files go here
	nproc   int
}

// budget returns the given share of the run's measuring budget.
func (e *env) budget(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// clients is the number of closed-loop query clients: one core is left to
// the feeder.
func (e *env) clients() int {
	if e.nproc > 1 {
		return e.nproc - 1
	}
	return 1
}

// tempDir makes a scratch directory under the output directory, so that the
// benchmark writes nowhere else.
func (e *env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, pattern)
}

// Report is the outcome of one run of one workload.
type Report struct {
	Workload  string             `json:"workload"`
	Records   int                `json:"records"`
	Objects   int                `json:"objects"`
	Queries   int                `json:"queries"` // completed in the timed query phase
	Metrics   map[string]Sample  `json:"metrics"`
	Counts    map[string]float64 `json:"exact_counts,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest,omitempty"` // of the store the workload built
}

// run carries the state a workload accumulates: its report, its failure
// accounting and the samples behind each metric.
type run struct {
	*env
	tally
	rep     Report
	samples map[string][]float64
}

func newRun(e *env, workload string) *run {
	return &run{env: e, rep: Report{Workload: workload, Metrics: map[string]Sample{}}, samples: map[string][]float64{}}
}

func (r *run) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// finish turns the collected samples into the report.
func (r *run) finish() Report {
	for name, vals := range r.samples {
		r.rep.Metrics[name] = summarize(metricUnit(name), vals)
	}
	r.rep.Attempted, r.rep.Failed, r.rep.Errors = r.attempted.Load(), r.failed.Load(), r.errors
	share := 0.0
	if r.rep.Attempted > 0 {
		share = float64(r.rep.Failed) / float64(r.rep.Attempted)
	}
	r.rep.Metrics["failed_share"] = single("ratio", share)
	return r.rep
}

// setupRuns is how often a run repeats its set-up to report a median.
const setupRuns = 3

// timedSetup runs the workload's set-up setupRuns times, records each wall
// time as a setup_s sample and returns the last result. release frees what
// the previous repetition built before the next one starts.
func timedSetup[T any](r *run, setup func() (T, error), release func(T)) (T, error) {
	var last T
	for i := 0; i < setupRuns; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		var zero T
		last = zero
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		r.add("setup_s", time.Since(start).Seconds())
		last = v
	}
	return last, nil
}

// heapMB forces a collection and returns the live heap in MB (1e6 bytes).
// The caller keeps what it measures referenced across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// ingest streams the feed through a fresh StreamProcessor on p, the way one
// feeder goroutine would: Add per record, count-triggered checkpoints spread
// evenly (never timer-triggered, so counters repeat), then Close and the
// durability barrier. It returns the wall time from the first Add to the
// return of SyncDurability.
func (r *run) ingest(p *semitri.Pipeline, feed []gps.Record, checkpoints int) time.Duration {
	every := 0
	if checkpoints > 0 {
		every = (len(feed) + checkpoints) / (checkpoints + 1)
	}
	sp := p.NewStream()
	start := time.Now()
	for i, rec := range feed {
		if _, err := sp.Add(rec); err != nil {
			r.op("add", err)
		}
		if every > 0 && (i+1)%every == 0 && i+1 < len(feed) {
			r.op("checkpoint", p.Checkpoint())
		}
	}
	r.ops(len(feed))
	_, err := sp.Close()
	r.op("close stream", err)
	r.op("sync durability", p.SyncDurability())
	return time.Since(start)
}

func (r *run) pipeline(ds *dataset, cfg semitri.Config) (*semitri.Pipeline, error) {
	cfg.QueryParallelism = r.nproc
	return semitri.New(ds.sources(), cfg)
}

// peopleConfig and fleetConfig are the two pipeline profiles the workloads
// ingest with.
func peopleConfig() semitri.Config { return semitri.DefaultConfig() }

func fleetConfig() semitri.Config {
	cfg := semitri.VehicleConfig()
	cfg.DailySplit = false
	return cfg
}

func durable(cfg semitri.Config, dir string) semitri.Config {
	cfg.Durability = semitri.Durability{Dir: dir, Storage: "segments", Fsync: "interval"}
	return cfg
}

// checkParity verifies that the stream path and the batch path agree on a
// sample of the objects: the complicated path against the simple one.
func (r *run) checkParity(sample *dataset, cfg semitri.Config) {
	streamed, err := r.pipeline(sample, cfg)
	if !r.op("new pipeline", err) {
		return
	}
	r.ingest(streamed, sample.feed, 0)
	batch, err := r.pipeline(sample, cfg)
	if !r.op("new pipeline", err) {
		return
	}
	var records []gps.Record
	for _, o := range sample.objects {
		records = append(records, sample.per[o]...)
	}
	_, err = batch.ProcessRecords(records)
	r.op("batch ProcessRecords", err)
	r.check("stream result equals batch result on the object sample", digest(streamed.Store()) == digest(batch.Store()))
}

// exactCounters are the obs counters that, with one feeder and
// count-triggered checkpoints, repeat exactly between runs of one seed. The
// timer-driven ones (WAL frames, bytes, flushes and fsyncs depend on where
// the group-commit timer cuts the record runs) are left out.
var exactCounters = []string{
	"semitri_ingest_records_total",
	"semitri_store_mutations_total",
	"semitri_segment_freezes_total",
	"semitri_query_total",
	"semitri_query_candidates_total",
	"semitri_query_returned_total",
	"semitri_join_total",
	"semitri_join_probes_total",
	"semitri_segment_pruned_total",
}

// counters snapshots the process-wide obs registry.
func counters() map[string]float64 { return obs.Default().Numeric() }

// exactDelta returns the growth of the exact counters since before.
func exactDelta(before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for id, v := range counters() {
		for _, name := range exactCounters {
			if d := v - before[id]; d != 0 && (id == name || strings.HasPrefix(id, name+"{")) {
				out[id] = d
			}
		}
	}
	return out
}

// sameAsFirst keeps the first pass's store digest and exact counts in the
// report and checks that every later pass repeats them.
func (r *run) sameAsFirst(d string, counts map[string]float64) {
	if r.rep.Digest == "" {
		r.rep.Digest, r.rep.Counts = d, counts
		return
	}
	r.check("store digest identical across passes", d == r.rep.Digest)
	r.check("exact counters identical across passes", sameCounts(counts, r.rep.Counts))
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// queryLoad is the outcome of a closed-loop query phase: the latency of
// every completed statement and when it completed.
type queryLoad struct {
	latenciesMs []float64
	doneAt      []time.Duration // since the start of the phase
	elapsed     time.Duration
}

// loadWindows is how many equal time windows a query phase is cut into; each
// yields one sample of the median latency and of the completion rate, so
// that the report carries the spread inside the run.
const loadWindows = 8

func (q queryLoad) windows() (p50Ms, perSecond []float64) {
	width := q.elapsed / loadWindows
	buckets := make([][]float64, loadWindows)
	for i, at := range q.doneAt {
		w := int(at / width)
		if w >= loadWindows {
			w = loadWindows - 1
		}
		buckets[w] = append(buckets[w], q.latenciesMs[i])
	}
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		p50Ms = append(p50Ms, summarize("", b).Median)
		perSecond = append(perSecond, float64(len(b))/width.Seconds())
	}
	return p50Ms, perSecond
}

// p99 is the 99th percentile over the whole phase.
func (q queryLoad) p99() float64 {
	s := append([]float64(nil), q.latenciesMs...)
	sort.Float64s(s)
	return quantile(s, 0.99)
}

// closedLoop runs the given number of clients for d: each issues its next
// statement only after the previous one completed. do executes one statement
// of the mix for one client.
func closedLoop(t *tally, clients int, d time.Duration, mix []stmt, do func(client int, s stmt) error) queryLoad {
	var wg sync.WaitGroup
	loads := make([]queryLoad, clients)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &loads[c]
			for i := c * len(mix) / clients; ; i++ {
				s := mix[i%len(mix)]
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := do(c, s)
				done := time.Now()
				if t.op(s.url, err) {
					l.latenciesMs = append(l.latenciesMs, float64(done.Sub(t0).Nanoseconds())/1e6)
					l.doneAt = append(l.doneAt, done.Sub(start))
				}
			}
		}(c)
	}
	wg.Wait()
	out := queryLoad{elapsed: time.Since(start)}
	for _, l := range loads {
		out.latenciesMs = append(out.latenciesMs, l.latenciesMs...)
		out.doneAt = append(out.doneAt, l.doneAt...)
	}
	return out
}

// probe is the short in-process query phase the ingest workloads end with:
// the serving mix through Engine.Execute / lang.Run on the store the ingest
// left behind.
func (r *run) probe(e *query.Engine, d time.Duration) error {
	gen, err := newStmtGen(r.seed, profileStore(e.Store()))
	if err != nil {
		return err
	}
	mix, err := gen.servingMix(4096)
	if err != nil {
		return err
	}
	load := closedLoop(&r.tally, r.clients(), d, mix, func(_ int, s stmt) error {
		_, err := execute(e, s)
		return err
	})
	r.reportLoad(load)
	return nil
}

func (r *run) reportLoad(load queryLoad) {
	r.samples["query_p50_ms"], r.samples["queries_per_s"] = load.windows()
	r.rep.Queries = len(load.latenciesMs)
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
