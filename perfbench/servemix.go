package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdkmc"
	"mdkmc/internal/md"
	"mdkmc/internal/rng"
	"mdkmc/internal/serve"
	"mdkmc/internal/telemetry"
)

// serve-mix: an in-process serve.Server with two rank slots behind its
// HTTP handler on loopback, driven by a closed loop of two clients with one
// keep-alive connection each: a client POSTs a job, follows its SSE stream
// to a terminal state, fetches the status, then submits the next. Closed,
// because mdserve's callers wait for each result. Client A (tenant bulk,
// priority 0) submits small 2-slot object-KMC campaigns; client B (tenant
// interactive, priority 10) submits small 1-slot md and kmc jobs that
// preempt A at checkpoint boundaries. It is the only workload that
// exercises admission, ledger persistence on every transition, preemption
// and elastic resume. Jobs are sized so a 10 s run completes well over 100,
// enough for ten samples beyond the p90 latency.
const (
	serveSlots       = 2
	serveSetups      = 41 // server constructions timed for setup_s
	serveDigestJobs  = 2  // per client: the prefix the result digest covers, run however short the budget
	serveTeardownMax = 10 * time.Second
)

// serveRanksXWorkers is the most MD goroutines the server can run at once:
// every slot may hold a rank of an md job or of a campaign's MD stage, and
// a job spec carries no worker count, so each rank runs the default MD
// config's force pool (GOMAXPROCS workers).
func serveRanksXWorkers(uint64) int {
	return serveSlots * md.ResolveWorkers(mdkmc.DefaultMDConfig().Workers)
}

// wallClock stamps job history with the real time.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// serveClient is one closed-loop client's identity.
type serveClient struct {
	name     string
	tenant   string
	priority int
}

var serveClients = []serveClient{
	{"A", "bulk", 0},
	{"B", "interactive", 10},
}

// serveJobSpec returns client c's i-th job; the seed sets each job's
// physics seed and which of B's alternating md and kmc jobs comes first.
// The job seed is unique within a run. The sizes keep the latency
// distribution's quantiles away from the gaps between job types: B's md
// and kmc jobs take about as long as each other, and A's campaigns, about
// three times as long, are about a quarter of all jobs, so the median
// falls among B's jobs and the p90 among A's.
func serveJobSpec(seed uint64, c, i int) serve.JobSpec {
	jobSeed := rng.Mix(seed, uint64(c), uint64(i)) | 1
	cl := serveClients[c]
	spec := serve.JobSpec{
		Tenant: cl.tenant, Priority: cl.priority, Seed: jobSeed,
		CheckpointEvery: 20,
	}
	if c == 0 {
		spec.Type = serve.TypeCampaign
		spec.Slots = 2
		spec.Cells = [3]int{12, 12, 12}
		spec.Steps = 20
		spec.CheckpointEvery = 10
		spec.KMCCycles = 10
		spec.Campaign = &serve.CampaignJobSpec{Iters: 2, DoseIncrement: 2e-3, Spectrum: campSpectrum, OKMC: true}
		return spec
	}
	spec.Slots = 1
	if (i+int(seed%2))%2 == 0 {
		spec.Type = serve.TypeMD
		spec.Cells = [3]int{8, 8, 8}
		spec.Steps = 40
		spec.PKAEnergy = 100
	} else {
		spec.Type = serve.TypeKMC
		spec.Cells = [3]int{20, 20, 20}
		spec.KMCCycles = 400
	}
	return spec
}

// serveEnv is one running server and its HTTP front end.
type serveEnv struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

func startServe(dir string, runner serve.Runner) (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Dir: dir, Slots: serveSlots, Clock: wallClock{}, Runner: runner})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { env.served <- env.hs.Serve(ln) }()
	return env, nil
}

// stop shuts the HTTP front end down and waits for its serve loop. The
// caller has already waited for every job to end.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), serveTeardownMax)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newClient returns an HTTP client that keeps one connection to the server.
func newClient() (*http.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: t}, t
}

// jobRecord is what a client learned about one of its jobs.
type jobRecord struct {
	index      int
	id         string
	submitMS   float64
	latencyS   float64
	preempted  int
	status     serve.JobStatus
	problem    string // empty when every check passed
	rejections int
}

// runJob submits one job and follows it to its end.
func runJob(cl *http.Client, url string, spec serve.JobSpec, rec *jobRecord, tr *tracer, jobSpan *liveSpan, lane int, timed *timedRunner) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var st serve.JobStatus
	for {
		sp := tr.begin("serve POST /jobs", "serve", jobSpan.id(), lane, "")
		resp, err := cl.Post(url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			sp.end()
			return err
		}
		code := resp.StatusCode
		if code == http.StatusCreated {
			err = json.NewDecoder(resp.Body).Decode(&st)
			sp.setJob(st.ID)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for connection reuse
		resp.Body.Close()
		sp.end()
		if err != nil {
			return fmt.Errorf("decoding submit response: %w", err)
		}
		if code == http.StatusCreated {
			break
		}
		if code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
			return fmt.Errorf("submit: HTTP %d", code)
		}
		rec.rejections++ // backpressure: retry after the advertised pause
		time.Sleep(time.Second)
	}
	rec.submitMS = msSince(t0)
	rec.id = st.ID
	jobSpan.setJob(st.ID)

	sp := tr.begin("serve GET /jobs/{id}/events", "serve", jobSpan.id(), lane, st.ID)
	timed.waitingIn(spec.Seed, sp.id(), lane)
	state, preempted, err := followEvents(cl, url+"/jobs/"+st.ID+"/events")
	sp.end()
	if err != nil {
		return err
	}
	rec.latencyS = time.Since(t0).Seconds()
	rec.preempted = preempted

	sp = tr.begin("serve GET /jobs/{id}", "serve", jobSpan.id(), lane, st.ID)
	defer sp.end()
	resp, err := cl.Get(url + "/jobs/" + st.ID)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rec.status); err != nil {
		return fmt.Errorf("decoding job status: %w", err)
	}
	if state != serve.StateDone {
		rec.problem = fmt.Sprintf("job %s ended %s: %s", st.ID, state, rec.status.Error)
	} else if err := checkServeJob(&rec.status); err != nil {
		rec.problem = fmt.Sprintf("job %s: %v", st.ID, err)
	}
	return nil
}

// followEvents reads a job's SSE stream until a terminal state event and
// returns that state and the number of preemptions seen.
func followEvents(cl *http.Client, url string) (serve.State, int, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	preempted := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e serve.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return "", 0, fmt.Errorf("decoding event: %w", err)
		}
		if e.Type != "state" {
			continue
		}
		if e.State == serve.StatePreempted {
			preempted++
		}
		if e.State.Terminal() {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for connection reuse
			return e.State, preempted, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", 0, err
	}
	return "", 0, errors.New("event stream ended before a terminal state")
}

// checkServeJob applies serve-mix's output checks to a done job: a result
// is recorded, and a campaign's dose ledger is conserved — the last row's
// population is Σ(NewVacancies − Merged) and its dose is the final dose.
// (For the object-KMC campaigns A submits, the status's own Population
// field counts cluster objects, not vacancies, so the ledger is the
// reference.)
func checkServeJob(st *serve.JobStatus) error {
	if len(st.Result) == 0 {
		return errors.New("done without a result")
	}
	if st.Type != serve.TypeCampaign {
		return nil
	}
	d := st.Dose
	if d == nil || len(d.Ledger) == 0 {
		return errors.New("campaign done without a dose ledger")
	}
	net := 0
	for _, row := range d.Ledger {
		net += row.NewVacancies - row.Merged
	}
	if last := d.Ledger[len(d.Ledger)-1]; net != last.Population || last.Dose != d.Dose {
		return fmt.Errorf("dose ledger not conserved: Σ(new-merged) %d, dose %v, last row %+v", net, d.Dose, last)
	}
	return nil
}

// physicsOf strips a result document of everything that depends on timing
// or decomposition (communication counters, telemetry), leaving the
// physics, which the determinism contract fixes.
func physicsOf(raw json.RawMessage) (string, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", err
	}
	for _, k := range []string{"Comm", "CommStats", "Telemetry"} {
		delete(m, k)
	}
	b, err := json.Marshal(m) // map keys marshal sorted
	return string(b), err
}

// timedRunner wraps SimRunner for the traced run: it times every attempt,
// records a span under the span the job's client is waiting in (the event
// stream, or the job as a whole while the submit is still in flight), and
// keeps the rank-0 telemetry of each attempt.
type timedRunner struct {
	tr *tracer

	mu        sync.Mutex
	parents   map[uint64]*spanRef // by job seed, which is unique in a run
	runnerS   map[string]float64  // by job ID, summed over attempts
	save      telemetry.Metric
	commitTel telemetry.Metric
	snapshots int64
}

// spanRef names the span a job's attempts hang under and its lane.
type spanRef struct {
	id   int64
	lane int
}

func (t *timedRunner) Run(rc serve.RunContext) (serve.RunResult, error) {
	t.mu.Lock()
	lane := t.parents[rc.Spec.Seed].lane
	t.mu.Unlock()
	var set *telemetry.Set
	onTel := rc.OnTelemetry
	rc.OnTelemetry = func(s *telemetry.Set) {
		set = s
		if onTel != nil {
			onTel(s)
		}
	}
	sp := t.tr.begin("serve.Runner.Run", "serve", 0, lane, rc.JobID)
	t0 := time.Now()
	res, err := serve.SimRunner{}.Run(rc)
	d := time.Since(t0).Seconds()
	t.mu.Lock()
	sp.s.Parent = t.parents[rc.Spec.Seed].id // where the client waits now
	t.mu.Unlock()
	sp.end()
	t.mu.Lock()
	t.runnerS[rc.JobID] += d
	if set != nil {
		s0 := snapshotOf(set.Rank(0))
		t.save = mergeTimer(t.save, s0["couple/checkpoint/save"])
		t.commitTel = mergeTimer(t.commitTel, s0["couple/checkpoint/commit"])
		t.snapshots += s0.count("couple/checkpoint")
	}
	t.mu.Unlock()
	return res, err
}

// waitingIn records the span, on the given client lane, that the client of
// the job with this seed now waits in. No-op on a nil *timedRunner.
func (t *timedRunner) waitingIn(seed uint64, span int64, lane int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parents[seed] = &spanRef{id: span, lane: lane}
	t.mu.Unlock()
}

// queueWaitS sums the time a job spent queued or preempted, from its
// transition history.
func queueWaitS(st *serve.JobStatus) float64 {
	var total float64
	var since time.Time
	for _, tr := range st.History {
		switch tr.State {
		case serve.StateQueued, serve.StatePreempted:
			if since.IsZero() {
				since = tr.At
			}
		case serve.StateRunning:
			if !since.IsZero() {
				total += tr.At.Sub(since).Seconds()
				since = time.Time{}
			}
		}
	}
	return total
}

func runServeMix(p params) (*report, error) {
	rep := &report{}
	var tr *tracer
	var root liveSpan
	if p.trace {
		tr = newTracer()
		root = tr.begin("run", "perfbench", 0, -1, "")
	}
	base := filepath.Join(p.scratch, "serve")
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	baseline := runtime.NumGoroutine()

	var runner serve.Runner
	var timed *timedRunner
	if p.trace {
		timed = &timedRunner{tr: tr, parents: map[uint64]*spanRef{}, runnerS: map[string]float64{}}
		runner = timed
	}
	// Time several constructions; the last one serves the run.
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		sp := tr.begin("serve.New + listen", "serve", root.id(), -1, "")
		t0 := time.Now()
		e, err := startServe(filepath.Join(base, fmt.Sprint(i)), runner)
		if err == nil {
			err = healthz(e.url)
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, err
		}
		if i < serveSetups-1 {
			if err := e.stop(); err != nil {
				return nil, err
			}
			continue
		}
		env = e
	}

	recs := make([][]*jobRecord, len(serveClients))
	errs := make([]error, len(serveClients))
	transports := make([]*http.Transport, len(serveClients))
	deadline := time.Now().Add(p.budget)
	loopStart := time.Now()
	var wg sync.WaitGroup
	for c := range serveClients {
		cl, t := newClient()
		transports[c] = t
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lane := tr.begin("client", "perfbench", root.id(), c, "")
			defer lane.end()
			for i := 0; i < serveDigestJobs || time.Now().Before(deadline); i++ {
				spec := serveJobSpec(p.seed, c, i)
				rec := &jobRecord{index: i}
				js := tr.begin("job", "serve", lane.id(), c, "")
				timed.waitingIn(spec.Seed, js.id(), c)
				err := runJob(cl, env.url, spec, rec, tr, &js, c, timed)
				js.end()
				if err != nil {
					errs[c] = err
					return
				}
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	loopS := time.Since(loopStart).Seconds()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Teardown: every job terminal and every slot free before the state
	// directory goes; goroutines still alive afterwards are leaks.
	tsp := tr.begin("teardown", "perfbench", root.id(), -1, "")
	if err := waitIdle(env.srv); err != nil {
		rep.fail("%v", err)
	}
	ledgerBytes := fileSize(filepath.Join(env.dir, "ledger.json"))
	if err := env.stop(); err != nil {
		return nil, err
	}
	for _, t := range transports {
		t.CloseIdleConnections()
	}
	leaked := waitGoroutines(baseline)
	tsp.end()
	root.end()

	var latency, submit, queue, runnerS, overhead []float64
	var attempts, preemptions, rejects, jobs int
	var digestParts []string
	for c := range recs {
		for _, rec := range recs[c] {
			jobs++
			rep.attempted += 1 + rec.rejections
			rep.failed += rec.rejections
			rejects += rec.rejections
			if rec.problem != "" {
				rep.fail("%s", rec.problem)
			}
			latency = append(latency, rec.latencyS)
			submit = append(submit, rec.submitMS)
			q := queueWaitS(&rec.status)
			queue = append(queue, q)
			attempts += rec.status.Attempts
			preemptions += rec.preempted
			if timed != nil {
				r := timed.runnerS[rec.id]
				runnerS = append(runnerS, r)
				overhead = append(overhead, rec.latencyS-q-r)
			}
			if rec.index < serveDigestJobs {
				ph, err := physicsOf(rec.status.Result)
				if err != nil {
					rep.fail("job %s result: %v", rec.id, err)
				}
				digestParts = append(digestParts, fmt.Sprintf("%d/%d:%s", c, rec.index, ph))
			}
		}
	}
	rep.digest = digestOf(strings.Join(digestParts, "\n"))
	rep.workPerS = float64(jobs) / loopS
	rep.unitP50MS = median(latency) * 1e3
	rep.own = []named{
		{"setup_s", median(rep.setupS), "s"},
		{"job_latency_s_p50", rep.unitP50MS / 1e3, "s"},
		{"job_latency_s_p90", percentile(latency, 0.9), "s"},
		{"jobs_per_s", rep.workPerS, "jobs/s"},
		{"jobs", float64(jobs), "count"},
		{"preemptions", float64(preemptions), "count"},
		{"leaked_goroutines", float64(leaked), "count"},
	}
	if p.trace {
		rep.tr = tr
		rep.layers = map[string]float64{
			"serve.submit_ms_p50":      median(submit),
			"serve.queue_wait_s_p50":   median(queue),
			"serve.runner_s_p50":       median(runnerS),
			"serve.overhead_s_p50":     median(overhead),
			"serve.preemptions":        float64(preemptions),
			"serve.attempts_per_job":   float64(attempts) / float64(jobs),
			"serve.rejects":            float64(rejects),
			"serve.ledger_bytes":       float64(ledgerBytes),
			"serve.leaked_goroutines":  float64(leaked),
			"checkpoint.save_ms_p50":   histP50MS(timed.save),
			"checkpoint.commit_ms_p50": histP50MS(timed.commitTel),
			"checkpoint.snapshots":     float64(timed.snapshots),
		}
	}
	return rep, nil
}

// healthz makes one request on a fresh connection, so set-up includes the
// server answering its first request.
func healthz(url string) error {
	cl, t := newClient()
	defer t.CloseIdleConnections()
	resp, err := cl.Get(url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — only the status matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// waitIdle waits until every job is terminal and every slot is free.
func waitIdle(s *serve.Server) error {
	deadline := time.Now().Add(serveTeardownMax)
	for {
		busy := 0
		for _, j := range s.Jobs() {
			if !j.State.Terminal() {
				busy++
			}
		}
		if busy == 0 && s.FreeSlots() == serveSlots {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("teardown: %d jobs not terminal, %d of %d slots free", busy, s.FreeSlots(), serveSlots)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitGoroutines waits briefly for the goroutine count to return to
// baseline and returns how many are still alive beyond it.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}
