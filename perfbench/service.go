package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/spec"
)

// serviceRate is R, the job arrival rate of service-mix's first phase
// in jobs/s; the second phase offers 2R. R is 0.4x the closed-loop
// capacity that `-capacity` measured on the reference box (README.md).
const serviceRate = 110

// mixBlock is service-mix's job mix: every five consecutive arrivals
// hold exactly these kinds, in seeded order, so every seed offers the
// same mix — 40% fresh, 40% repeats, 20% half-overlaps.
var mixBlock = [...]jobKind{kindFresh, kindFresh, kindRepeat, kindRepeat, kindHalf}

// A repeat or half-overlap reuses a fresh job that arrived between
// reuseMin and reuseMax arrivals before it (about 0.2 to 0.5 s at R):
// old enough to have finished, recent enough to still be in the
// whole-sweep cache.
const (
	reuseMin = 20
	reuseMax = 60
)

// digestJobs is how many jobs, in job order, the service digest covers.
const digestJobs = 100

// jobPoints is the grid size of every job spec.
const jobPoints = 8

type jobKind int

const (
	kindFresh  jobKind = iota // a new seed: cold simulation plus journal writes
	kindRepeat                // an exact earlier spec: whole-sweep cache read
	kindHalf                  // half the points of an earlier spec: per-point cache
)

var kindNames = [...]string{kindFresh: "fresh", kindRepeat: "repeat", kindHalf: "half-overlap"}

// job is one planned submission.
type job struct {
	kind   jobKind
	target int           // the fresh job a repeat or half-overlap reuses
	due    time.Duration // offset from the start of the measured phase
	phase  int           // 0 at rate R, 1 at 2R
	spec   spec.Sweep
}

// jobSpec is an 8-point sweep: 16 ranks, 60 steps, noise x bytes.
func jobSpec(seed uint64, noise []string) spec.Sweep {
	return spec.Sweep{
		Base: spec.Scenario{
			Ranks: 16, Steps: 60, Texec: "3ms", Boundary: "periodic", Seed: seed,
			Delay: []spec.Delay{{Rank: int(seed % 16), Step: 2, Duration: "15ms"}},
		},
		Axes: []spec.Axis{
			{Kind: "noise", Values: noise},
			{Kind: "bytes", Values: []string{"8192", "65536"}},
		},
	}
}

// planJobs generates the open-loop schedule: rate R for the first two
// thirds of d, where the end-to-end latencies are taken, then 2R for the
// last third. Arrivals are a Poisson process conditioned on its count —
// that many sorted uniform times per phase — so every seed offers
// exactly the same load. Job specs come from their own random stream and
// depend on the job's index alone, so the first jobs, and the digest
// over them, are the same at any run length.
func planJobs(seed uint64, rate float64, d time.Duration) []job {
	root := rng.New(seed)
	arrivals, specs := root.Split(), root.Split()
	phases := []struct {
		start, length time.Duration
		rate          float64
	}{{0, 2 * d / 3, rate}, {2 * d / 3, d / 3, 2 * rate}}
	var jobs []job
	for ph, p := range phases {
		n := max(4, int(p.rate*p.length.Seconds()))
		at := make([]float64, n)
		for i := range at {
			at[i] = arrivals.Float64() * p.length.Seconds()
		}
		sort.Float64s(at)
		for _, t := range at {
			due := p.start + time.Duration(t*float64(time.Second))
			jobs = append(jobs, job{phase: ph, due: due, target: -1})
		}
	}
	var fresh []int
	block := mixBlock
	for i := range jobs {
		j := &jobs[i]
		if i%len(block) == 0 {
			specs.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		j.kind = block[i%len(block)]
		var cands []int
		for k := len(fresh) - 1; k >= 0 && i-fresh[k] <= reuseMax; k-- {
			if i-fresh[k] >= reuseMin {
				cands = append(cands, fresh[k])
			}
		}
		if len(cands) == 0 {
			j.kind = kindFresh // nothing to reuse yet
		}
		switch j.kind {
		case kindFresh:
			j.spec = jobSpec(specs.Uint64()>>1+1, []string{"0", "0.01", "0.02", "0.05"})
			fresh = append(fresh, i)
		case kindRepeat:
			j.target = cands[specs.Intn(len(cands))]
			j.spec = jobs[j.target].spec
		case kindHalf:
			j.target = cands[specs.Intn(len(cands))]
			t := jobs[j.target].spec
			// Two noise levels shared with the target, two unique to this
			// job: half of the grid hits the point cache.
			own := func(base float64) string { return strconv.FormatFloat(base+1e-4*float64(i), 'g', -1, 64) }
			j.spec = jobSpec(t.Base.Seed, []string{t.Axes[0].Values[0], t.Axes[0].Values[1], own(0.1), own(0.2)})
		}
	}
	return jobs
}

// service is service-mix: the sweep service's HTTP handler on a loopback
// test server, with a journal on disk, driven over at most two client
// connections.
type service struct {
	dir    string
	jnl    *journal.Journal
	mgr    *serve.Manager
	srv    *httptest.Server
	client *http.Client
	jobs   []job
}

func setupService(p params, _ *tap) (instance, error) {
	rate := float64(serviceRate)
	if p.small {
		rate = 4
	}
	return startService(planJobs(p.seed, rate, p.seconds))
}

func startService(jobs []job) (*service, error) {
	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return nil, err
	}
	jnl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mgr := serve.NewManager(serve.Config{MaxJobs: 2, WorkersPerJob: 1, Journal: jnl})
	if err := mgr.Recover(recs); err != nil {
		mgr.Close()
		jnl.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := httptest.NewServer(serve.Handler(mgr))
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return &service{dir: dir, jnl: jnl, mgr: mgr, srv: srv, client: client, jobs: jobs}, nil
}

func (s *service) close() error {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.mgr.Close()
	err := s.jnl.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// outcome is what the client saw of one job.
type outcome struct {
	id        string
	due, sent time.Time
	done      time.Time
	ok        bool
	refused   bool
	rows      [][]byte // the stream's point lines, in stream order
	err       string
}

// latency is the time from when the job was due until the last stream
// byte arrived; a failed or refused job never completes.
func (o *outcome) latency() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return ms(o.done.Sub(o.due))
}

// run submits one job and reads its NDJSON stream to the end.
func (s *service) run(j *job, o *outcome, tp *tap) {
	root := tp.begin("op", openSpan{})
	defer root.end()
	enc := tp.begin("spec.Encode", root)
	body, err := j.spec.Encode()
	enc.end()
	if err != nil {
		o.err = err.Error()
		return
	}
	post := tp.begin("http.Submit", root)
	resp, err := s.client.Post(s.srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		post.end()
		o.err = err.Error()
		return
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	drain(resp)
	post.end()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.refused = true
		o.err = resp.Status
		return
	case resp.StatusCode != http.StatusCreated || err != nil:
		o.err = fmt.Sprintf("submit: %s %v", resp.Status, err)
		return
	}
	o.id = st.ID

	stream := tp.begin("http.Stream", root)
	defer stream.end()
	resp, err = s.client.Get(s.srv.URL + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		o.err = err.Error()
		return
	}
	defer drain(resp)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var end struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &end); err != nil {
			o.err = fmt.Sprintf("stream: %v", err)
			return
		}
		if !end.Done {
			o.rows = append(o.rows, bytes.Clone(sc.Bytes()))
			continue
		}
		o.done = time.Now()
		if end.State != string(serve.StateDone) || len(o.rows) != jobPoints {
			o.err = fmt.Sprintf("job %s ended %s with %d rows: %s", st.ID, end.State, len(o.rows), end.Error)
			return
		}
		o.ok = true
		return
	}
	o.err = fmt.Sprintf("stream of %s ended without a done frame: %v", st.ID, sc.Err())
}

// drain reads a response to the end and closes it, so the connection
// returns to the pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (s *service) measure(d time.Duration, tp *tap) *phase {
	out := make([]outcome, len(s.jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range s.jobs {
		due := start.Add(s.jobs[i].due)
		time.Sleep(time.Until(due))
		out[i].due, out[i].sent = due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.run(&s.jobs[i], &out[i], tp)
		}(i)
	}
	wg.Wait()

	ph := newPhase()
	var lat2x, lag []float64
	var byKind [len(kindNames)][]float64
	var refused int
	var last time.Time
	dg := newDigest()
	for i := range out {
		o, j := &out[i], &s.jobs[i]
		ph.ops++
		lag = append(lag, ms(o.sent.Sub(o.due)))
		if j.phase == 0 {
			ph.lat = append(ph.lat, o.latency())
			byKind[j.kind] = append(byKind[j.kind], o.latency())
		} else {
			lat2x = append(lat2x, o.latency())
		}
		if o.refused {
			refused++
		}
		if !o.ok {
			ph.fail("job %d: %s", i, o.err)
			continue
		}
		ph.work++
		if o.done.After(last) {
			last = o.done
		}
		if i < digestJobs {
			for _, row := range o.rows {
				dg.str(string(row))
			}
		}
		// A cache answer must equal the cold job it replays: all rows of
		// a repeat, the shared first half of a half-overlap.
		if j.target >= 0 && out[j.target].ok {
			n := jobPoints
			if j.kind == kindHalf {
				n = jobPoints / 2
			}
			for k := 0; k < n; k++ {
				if !bytes.Equal(o.rows[k], out[j.target].rows[k]) {
					ph.fail("job %d row %d differs from the same row of job %d", i, k, j.target)
					break
				}
			}
		}
	}
	ph.elapsed = last.Sub(start)
	ph.digest = dg.sum()
	ph.full = len(out) >= digestJobs
	p95x2 := percentile(lat2x, 0.95)
	ph.layer["loadgen.job_p95_ms"] = finite(percentile(ph.lat, 0.95))
	ph.layer["loadgen.job_p95_ms_2x"] = finite(p95x2)
	ph.layer["loadgen.jobs"] = float64(len(ph.lat))
	ph.layer["loadgen.jobs_2x"] = float64(len(lat2x))
	ph.layer["loadgen.lag_p95_ms"] = percentile(lag, 0.95)
	ph.layer["serve.refused"] = float64(refused)
	ph.info = append(ph.info,
		fmt.Sprintf("jobs at R: n=%d  p50 %.3f ms  p90 %.3f ms  p95 %.3f ms  p99 %.3f ms", len(ph.lat),
			percentile(ph.lat, 0.5), percentile(ph.lat, 0.9), percentile(ph.lat, 0.95), percentile(ph.lat, 0.99)),
		fmt.Sprintf("jobs at 2R: n=%d  p95 %.3f ms", len(lat2x), p95x2),
		fmt.Sprintf("generator lag: p95 %.3f ms over %d jobs", percentile(lag, 0.95), len(lag)))
	for k, lat := range byKind {
		ph.info = append(ph.info, fmt.Sprintf("%s jobs at R: n=%d  p50 %.3f ms  p95 %.3f ms",
			kindNames[k], len(lat), percentile(lat, 0.5), percentile(lat, 0.95)))
	}
	if tp != nil {
		s.serverLayers(out, ph)
	}
	return ph
}

// serverLayers adds the traced run's server-side numbers: job timings
// from GET /v1/sweeps/{id}, cache counters from /v1/stats, the journal's
// size, and a fsync'd append of a submit-sized record.
func (s *service) serverLayers(out []outcome, ph *phase) {
	var queue, run, overhead []float64
	for i := range out {
		o := &out[i]
		if !o.ok {
			continue
		}
		var st serve.Status
		if err := s.getJSON("/v1/sweeps/"+o.id, &st); err != nil {
			ph.fail("status of %s: %v", o.id, err)
			continue
		}
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		run = append(run, ms(st.Finished.Sub(st.Started)))
		overhead = append(overhead, ms(o.done.Sub(o.sent))-ms(st.Finished.Sub(st.Created)))
	}
	ph.layer["serve.queue_wait_p95_ms"] = percentile(queue, 0.95)
	ph.layer["serve.run_p50_ms"] = percentile(run, 0.5)
	ph.layer["serve.http_overhead_p50_ms"] = percentile(overhead, 0.5)

	var st serve.Stats
	if err := s.getJSON("/v1/stats", &st); err != nil {
		ph.fail("stats: %v", err)
	}
	ph.layer["serve.sweep_cache_hit_frac"] = st.SweepCache.HitRate
	ph.layer["serve.sweep_cache_lookups"] = float64(st.SweepCache.Hits + st.SweepCache.Misses)
	ph.layer["serve.point_cache_hit_frac"] = st.PointCache.HitRate
	ph.layer["serve.point_cache_lookups"] = float64(st.PointCache.Hits + st.PointCache.Misses)
	ph.layer["serve.points_computed"] = float64(st.PointsComputed)

	if fi, err := os.Stat(filepath.Join(s.dir, journal.FileName)); err == nil && len(out) > 0 {
		ph.layer["journal.bytes_per_job"] = float64(fi.Size()) / float64(len(out))
	}
	p50, p99, err := journalAppendUs(s.jobs[0].spec)
	if err != nil {
		ph.fail("journal append: %v", err)
	}
	ph.layer["journal.append_us_p50"] = p50
	ph.layer["journal.append_us_p99"] = p99
}

func (s *service) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.srv.URL + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// journalAppendUs times fsync'd appends of submit records carrying the
// given spec to a fresh journal, and returns their p50 and p99 in us.
func journalAppendUs(ws spec.Sweep) (p50, p99 float64, err error) {
	const appends = 200
	enc, err := ws.Encode()
	if err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp("", "perfbench-append-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	jnl, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, 0, err
	}
	us := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		rec := journal.Record{Kind: journal.KindSubmit, Job: fmt.Sprintf("j%06d", i), Hash: "bench", Spec: enc, Total: jobPoints}
		t := time.Now()
		if err := jnl.Append(rec); err != nil {
			jnl.Close()
			return 0, 0, err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	if err := jnl.Close(); err != nil {
		return 0, 0, err
	}
	return percentile(us, 0.5), percentile(us, 0.99), nil
}

// finite reports an infinite percentile (more failed jobs than the
// percentile tolerates) as 1e12 ms, since JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 0) {
		return 1e12
	}
	return v
}

// closedLoopPlanRate plans more jobs than two closed-loop clients can
// finish, so the capacity probe never runs out of work.
const closedLoopPlanRate = 1000

// probeCapacity measures service-mix's closed-loop capacity: two clients
// send the planned jobs back to back for d, and the result is completed
// jobs per second. serviceRate was fixed from it.
func probeCapacity(p params) (float64, error) {
	s, err := startService(planJobs(p.seed, closedLoopPlanRate, p.seconds))
	if err != nil {
		return 0, err
	}
	defer s.close()
	var (
		mu   sync.Mutex
		next int
		done int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < p.seconds {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(s.jobs) {
					return
				}
				var o outcome
				s.run(&s.jobs[i], &o, nil)
				if o.ok {
					mu.Lock()
					done++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), nil
}
