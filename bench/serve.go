package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"semitri"
	"semitri/internal/episode"
	"semitri/internal/gps"
	"semitri/internal/obs"
	"semitri/internal/query"
	"semitri/internal/serve"
)

// feedRate is the fixed open-loop ingest rate of the live phase, in records
// per second: 10 k at scale 1, a few percent of a core. The floor keeps
// small-scale runs closing trajectories.
func (e *env) feedRate() float64 { return math.Max(10000*e.scale, 2000) }

// frontDoor is a pipeline served over HTTP on a loopback listener.
type frontDoor struct {
	base string
	srv  *http.Server
	done chan error
}

func openFrontDoor(p *semitri.Pipeline) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := serve.New(p.QueryEngine(), serve.WithLive(p.Live())).Handler()
	fd := &frontDoor{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: handler}, done: make(chan error, 1)}
	go func() { fd.done <- fd.srv.Serve(ln) }()
	return fd, nil
}

// close stops the server and waits until its accept loop has ended.
func (fd *frontDoor) close() error {
	err := fd.srv.Close()
	if serr := <-fd.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpClient is one keep-alive connection's worth of client.
type httpClient struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func (fd *frontDoor) client() *httpClient {
	return &httpClient{base: fd.base, c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// get fetches one URL and returns the body, which stays valid until the next
// call. A non-2xx status is an error.
func (h *httpClient) get(path string) ([]byte, error) {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, h.buf.Bytes())
	}
	return h.buf.Bytes(), nil
}

// query fetches one statement and checks that the response decodes.
func (h *httpClient) query(s stmt) error {
	body, err := h.get(s.url)
	if err != nil {
		return err
	}
	if !json.Valid(body) {
		return errors.New("undecodable response")
	}
	return nil
}

func stopKey(trajectory string, timeIn time.Time) string {
	return fmt.Sprintf("%s|%d", trajectory, timeIn.UnixNano())
}

// liveResult is what one live phase measured.
type liveResult struct {
	load       queryLoad
	latenessMs []float64 // per fed record: completion of Add minus when it was due
	fed        int
	sseLagMs   []float64
	bus        obs.BusStats
}

// livePhase serves p over HTTP for d while one feeder ingests feed open-loop
// at rate records per second, closed-loop clients issue mix and one SSE
// client follows every stop. The feed's stream is closed before it returns.
func (r *run) livePhase(p *semitri.Pipeline, feed []gps.Record, rate float64, d time.Duration, mix []stmt) (liveResult, error) {
	var res liveResult
	fd, err := openFrontDoor(p)
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The delivery lag of a stop runs from the moment Add returned its
	// StreamEvent to the moment the SSE client read its frame; whichever side
	// comes second books it. lagMu guards the three.
	var (
		sse, feeder sync.WaitGroup
		lagMu       sync.Mutex
		sentAt      = map[string]time.Time{}
		readAt      = map[string]time.Time{}
	)
	book := func(key string) {
		s, okS := sentAt[key]
		rd, okR := readAt[key]
		if okS && okR {
			lag := rd.Sub(s)
			if lag < 0 {
				lag = 0 // the frame can overtake the return of Add
			}
			res.sseLagMs = append(res.sseLagMs, float64(lag.Nanoseconds())/1e6)
		}
	}

	// The SSE client: one standing query over every stop.
	subscribed := make(chan error, 1)
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	sse.Add(1)
	go func() {
		defer sse.Done()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fd.base+"/subscribe?q=stops&buffer=65536", nil)
		if err != nil {
			subscribed <- err
			return
		}
		resp, err := transport.RoundTrip(req)
		if err != nil {
			subscribed <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				if event = line[len("event: "):]; event == "subscribed" {
					subscribed <- nil
				}
			case strings.HasPrefix(line, "data: ") && event == query.NotifyMatch:
				at := time.Now()
				var frame struct {
					Match struct {
						Trajectory string    `json:"trajectory"`
						TimeIn     time.Time `json:"time_in"`
					} `json:"match"`
				}
				if r.op("decode SSE frame", json.Unmarshal([]byte(line[len("data: "):]), &frame)) {
					key := stopKey(frame.Match.Trajectory, frame.Match.TimeIn)
					lagMu.Lock()
					readAt[key] = at
					book(key)
					lagMu.Unlock()
				}
			}
		}
	}()
	select {
	case err = <-subscribed:
	case <-time.After(10 * time.Second):
		err = errors.New("no subscribed event")
	}
	if err != nil {
		cancel()
		sse.Wait()
		fd.close()
		return res, fmt.Errorf("subscribe: %w", err)
	}

	// The feeder: open loop, each record due at start + i/rate.
	sp := p.NewStream()
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		interval := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		for i, rec := range feed {
			due := start.Add(time.Duration(i) * interval)
			if due.Sub(start) >= d {
				break
			}
			if wait := time.Until(due); wait > 200*time.Microsecond {
				time.Sleep(wait)
			}
			evs, err := sp.Add(rec)
			done := time.Now()
			if err != nil {
				r.op("add", err)
			}
			res.latenessMs = append(res.latenessMs, float64(done.Sub(due).Nanoseconds())/1e6)
			res.fed++
			for _, ev := range evs {
				if ev.Episode != nil && ev.Episode.Kind == episode.Stop {
					key := stopKey(ev.TrajectoryID, ev.Tuple.TimeIn)
					lagMu.Lock()
					sentAt[key] = done
					book(key)
					lagMu.Unlock()
				}
			}
		}
		r.ops(res.fed)
	}()

	// The query clients: closed loop, one keep-alive connection each.
	clients := make([]*httpClient, r.clients())
	for i := range clients {
		clients[i] = fd.client()
	}
	res.load = closedLoop(&r.tally, len(clients), d, mix, func(c int, s stmt) error { return clients[c].query(s) })

	// The feeder ends with the phase; flush its stream, let the dispatcher
	// deliver what is queued, then cut the subscription.
	feeder.Wait()
	_, err = sp.Close()
	r.op("close stream", err)
	p.Live().Sync()
	res.bus = p.Live().BusStats()
	cancel()
	sse.Wait()
	for _, c := range clients {
		c.c.CloseIdleConnections()
	}
	return res, fd.close()
}

// serveState is what serve_mixed sets up: a pipeline preloaded with one half
// of the fleet, engine and standing-query dispatcher attached before ingest.
type serveState struct {
	live *dataset
	p    *semitri.Pipeline
	base float64 // heap of the generated input
}

// serveMixed: the HTTP front door under read-beside-write. Dominated by
// serve decode/encode and query plan/lookup; it reads store and indexes
// while they are written and barely touches the annotation layers, so an
// ingest-layer gain should leave it flat and a lock or allocation regression
// in the read path shows here first.
func serveMixed(e *env) (Report, error) {
	r := newRun(e, "serve_mixed")
	st, err := timedSetup(r, func() (serveState, error) {
		ds, err := genFleet(scaled(1600, e.scale, 16), e.seed)
		if err != nil {
			return serveState{}, err
		}
		preload, live := ds.halves()
		s := serveState{live: live, base: heapMB()}
		if s.p, err = r.pipeline(preload, fleetConfig()); err != nil {
			return s, err
		}
		s.p.Live()
		wall := r.ingest(s.p, preload.feed, 0)
		r.add("ingest_records_per_s", float64(len(preload.feed))/wall.Seconds())
		r.rep.Records, r.rep.Objects = len(preload.feed), len(preload.objects)
		return s, nil
	}, func(old serveState) { r.op("close pipeline", old.p.Close()) })
	if err != nil {
		return Report{}, err
	}
	defer st.p.Close()
	engine := st.p.QueryEngine()

	gen, err := newStmtGen(e.seed, profileStore(st.p.Store()))
	if err != nil {
		return Report{}, err
	}
	probes, err := gen.everyClass(4)
	if err != nil {
		return Report{}, err
	}
	mix, err := gen.servingMix(8192)
	if err != nil {
		return Report{}, err
	}

	// On the quiescent preloaded store every statement's HTTP answer equals
	// the in-process answer and the brute-force one.
	fd, err := openFrontDoor(st.p)
	if err != nil {
		return Report{}, err
	}
	client := fd.client()
	for _, s := range append(probes, mix[:64]...) {
		body, err := client.get(s.url)
		if !r.op(s.url, err) {
			continue
		}
		viaHTTP, err := wireAnswer(body)
		if !r.op("decode "+s.url, err) {
			continue
		}
		inProcess, err := answer(engine, s)
		r.op("execute "+s.url, err)
		r.check("HTTP answer equals in-process answer on "+s.url, sameRows(viaHTTP, inProcess))
		r.check("in-process answer equals brute force on "+s.url, sameRows(inProcess, bruteAnswer(st.p.Store(), s)))
	}
	client.c.CloseIdleConnections()
	if err := fd.close(); err != nil {
		return Report{}, err
	}

	res, err := r.livePhase(st.p, st.live.feed, e.feedRate(), e.budget(0.9), mix)
	if err != nil {
		return Report{}, err
	}
	r.reportLoad(res.load)
	r.add("query_p99_ms", res.load.p99())
	r.add("live_heap_mb", heapMB()-st.base)
	r.samples["feeder_lateness_ms"] = res.latenessMs
	worst := 0.0
	for _, l := range res.latenessMs {
		if l > worst {
			worst = l
		}
	}
	r.check(fmt.Sprintf("feeder at most 1 s behind (worst %.1f ms over %d records)", worst, res.fed), worst <= 1000)
	r.rep.Records += res.fed
	r.rep.Objects += len(st.live.objects)
	return r.finish(), nil
}

func serveMixedReplay(e *env) (Report, error) {
	ds, err := genFleet(scaled(1600, e.scale, 16), e.seed)
	if err != nil {
		return Report{}, err
	}
	return replay(e, "serve_mixed", replayInput{ds: ds, cfg: fleetConfig(), engine: true,
		mix: func(g *stmtGen) ([]stmt, error) { return g.servingMix(256) }})
}
