package main

// serve-mix: pmaxentd, built from the tree, runs as its own process on
// loopback; one load generator (this process, at most nproc connections)
// sends prebuilt requests — an open-loop phase at a fixed rate, timed from
// each request's scheduled send, then a closed-loop phase of nproc clients
// for throughput. Responses are kept as bytes and checked after the
// phases, so decoding does not compete with the daemon for the cores.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/server"
)

// Request kinds of the mix.
const (
	kindHot   = "hot"   // single quantify on a hot view
	kindCold  = "cold"  // single quantify on a cold view
	kindDelta = "delta" // "delta": true request on a hot view
	kindBatch = "batch" // /v1/quantify/batch over a hot view's variants
)

// Shape of serve-mix. No recorded pmaxentd traffic exists, so the mix is
// an assumption; each figure below is the one that guarantees what the
// workload needs (README.md gives the arithmetic).
const (
	serveRecords = 2000
	// serveHot hot views stay in the 16-entry prepared LRU: hot requests
	// walk them in one round-robin, so at most 7 hot and 6 cold views are
	// touched between two visits to one hot view.
	serveHot = 8
	// serveCold cold views always miss: between two visits to one cold
	// view the other 11 cold views and all 8 hot views are touched, 19 > 16.
	serveCold = 12
	// serveRate is the open-loop arrival rate (requests/s), about a third
	// or less of the closed-loop throughput on 2 cores.
	serveRate = 8.0
	// serveOpenShare is the share of -seconds given to the open loop.
	serveOpenShare = 0.75
	// serveSetupRepeats is how many times a run sets up (and for all but
	// the last, stops) the daemon.
	serveSetupRepeats = 9
)

// serveBlock is the mix: every kind in equal shares, in an order the seed
// shuffles per block, so each of the four per-kind latencies gets a
// quarter of the open loop (36 requests at 24 s).
var serveBlock = []string{kindHot, kindHot, kindCold, kindCold, kindDelta, kindDelta, kindBatch, kindBatch}

// servePubOptions shapes the knowledge sent about a view.
type servePubOptions struct {
	// bound is the view's one knowledge set, Top-(K+, K−) of its rules.
	bound core.Bound
	// cold views get one single-request body (bound) and nothing else.
	cold bool
}

// serveBounds are the views' knowledge sets, dealt round-robin; all
// converge within pmaxentd's default 500-iteration budget.
//
// Every request about a view carries either no knowledge (a batch
// variant) or the view's one set, so each prepared-cache entry's warm-start seed always comes
// from the same knowledge. A seed from a different knowledge set now and
// then sends the solve's first line search to overflow (converged=false,
// max violation ~1e150 after 0 iterations), which would make failures
// depend on request order; see README.md.
var serveBounds = []core.Bound{{KPos: 1, KNeg: 1}, {KPos: 2, KNeg: 2}, {KNeg: 2}, {KPos: 2}}

// servePub is one published view and the prebuilt request bodies about it.
type servePub struct {
	name string
	tbl  *dataset.Table
	view []byte
	// know is the view's knowledge set in the wire format; single and
	// delta are the plain and the "delta": true request carrying it, and
	// batch asks for two variants: no knowledge (Theorem 5's closed form)
	// and know.
	know   []byte
	single []byte
	delta  []byte
	batch  []byte

	refOnce sync.Once
	ref     *viewRef
	refErr  error
}

// knowledgeJSON renders statements in the wire format (nil for none).
func knowledgeJSON(schema *dataset.Schema, ks []constraint.DistributionKnowledge) ([]byte, error) {
	if len(ks) == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := constraint.WriteKnowledgeJSON(&buf, schema, ks); err != nil {
		return nil, err
	}
	return bytes.TrimSpace(buf.Bytes()), nil
}

// topKnowledge turns the Top-(K+, K−) rules into knowledge statements.
func topKnowledge(rules []assoc.Rule, b core.Bound) []constraint.DistributionKnowledge {
	var ks []constraint.DistributionKnowledge
	for _, r := range assoc.TopK(rules, b.KPos, b.KNeg) {
		ks = append(ks, r.Knowledge())
	}
	return ks
}

// newServePub builds the view's wire form and request bodies from its
// sorted mined rules.
func newServePub(name string, d *bucket.Bucketized, rules []assoc.Rule, o servePubOptions) (*servePub, error) {
	p := &servePub{name: name}
	var buf bytes.Buffer
	if err := bucket.WriteJSON(&buf, d); err != nil {
		return nil, err
	}
	p.view = buf.Bytes()
	var err error
	if p.know, err = knowledgeJSON(d.Schema(), topKnowledge(rules, o.bound)); err != nil {
		return nil, err
	}
	if p.single, err = json.Marshal(server.QuantifyRequest{Published: p.view, Knowledge: p.know}); err != nil || o.cold {
		return p, err
	}
	if p.delta, err = json.Marshal(server.QuantifyRequest{Published: p.view, Knowledge: p.know, Delta: true}); err != nil {
		return nil, err
	}
	p.batch, err = json.Marshal(server.BatchQuantifyRequest{Published: p.view,
		Variants: []server.BatchVariant{{}, {Knowledge: p.know}}})
	return p, err
}

// batchKnow is the knowledge of a batch's variants, in order.
func (p *servePub) batchKnow() [][]byte { return [][]byte{nil, p.know} }

// refs returns the benchmark's own counts of the view (parsed once).
func (p *servePub) refs() (*viewRef, error) {
	p.refOnce.Do(func() { p.ref, p.refErr = viewRefFromJSON(p.view) })
	return p.ref, p.refErr
}

// reqSpec is one prebuilt request.
type reqSpec struct {
	kind string
	pub  *servePub
	path string
	body []byte
	// know is the knowledge JSON of each answer (one for singles, one per
	// variant for batches).
	know [][]byte
}

// planner deals requests from the mix in whole blocks.
type planner struct {
	rng         *rand.Rand
	hot, cold   []*servePub
	block       []string
	nHot, nCold int
}

func newPlanner(seed int64, hot, cold []*servePub, block []string) *planner {
	return &planner{rng: rand.New(rand.NewSource(seed)), hot: hot, cold: cold, block: block}
}

// next returns the next block of requests.
func (pl *planner) next() []*reqSpec {
	kinds := append([]string(nil), pl.block...)
	pl.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]*reqSpec, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, pl.spec(k))
	}
	return out
}

func (pl *planner) spec(kind string) *reqSpec {
	if kind == kindCold {
		p := pl.cold[pl.nCold%len(pl.cold)]
		pl.nCold++
		return &reqSpec{kind: kind, pub: p, path: "/v1/quantify", body: p.single, know: [][]byte{p.know}}
	}
	// Hot requests of every kind share one round-robin over the hot views.
	p := pl.hot[pl.nHot%len(pl.hot)]
	pl.nHot++
	switch kind {
	case kindDelta:
		return &reqSpec{kind: kind, pub: p, path: "/v1/quantify", body: p.delta, know: [][]byte{p.know}}
	case kindBatch:
		return &reqSpec{kind: kind, pub: p, path: "/v1/quantify/batch", body: p.batch, know: p.batchKnow()}
	}
	return &reqSpec{kind: kind, pub: p, path: "/v1/quantify", body: p.single, know: [][]byte{p.know}}
}

func (pl *planner) take(n int) []*reqSpec {
	var out []*reqSpec
	for len(out) < n {
		out = append(out, pl.next()...)
	}
	return out[:n]
}

// daemon is a running pmaxentd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	histDir string
	log     *os.File
	exited  chan error
}

var servingAddr = regexp.MustCompile(`msg="pmaxentd: serving" addr=(\S+)`)

// startDaemon starts pmaxentd on a loopback port with the delta chain and
// a temporary history journal, and waits until /readyz answers.
func startDaemon(cfg config, tag string) (*daemon, error) {
	tmp := filepath.Join(filepath.Dir(cfg.out), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	hist, err := os.MkdirTemp(tmp, "history-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.out, fmt.Sprintf("pmaxentd-%s-seed%d.log", tag, cfg.seed)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.pmaxentd, "-addr", "127.0.0.1:0", "-delta", "-history-dir", hist)
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(hist)
		return nil, err
	}
	d := &daemon{cmd: cmd, histDir: hist, log: logf, exited: make(chan error, 1)}
	addrc := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := servingAddr.FindStringSubmatch(line); m != nil {
				addrc <- m[1]
			}
		}
	}()
	go func() {
		<-scanDone
		d.exited <- cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case err := <-d.exited:
		d.cleanup()
		return nil, fmt.Errorf("pmaxentd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("pmaxentd did not start within 30 s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("pmaxentd not ready within 30 s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain (killing after 60 s) and
// requires a clean exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-d.exited
		if err == nil {
			err = errors.New("pmaxentd killed after 60 s drain")
		}
	}
	d.cleanup()
	return err
}

func (d *daemon) cleanup() {
	d.log.Close()
	os.RemoveAll(d.histDir)
}

// scrape reads /metrics into name → value (histograms as _sum/_count).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// sample is one request as sent and answered.
type sample struct {
	spec              *reqSpec
	open              bool
	sched, sent, done time.Time
	status            int
	err               error
	body              []byte
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func send(c *http.Client, base string, s *sample) {
	s.sent = time.Now()
	resp, err := c.Post(base+s.spec.path, "application/json", bytes.NewReader(s.spec.body))
	if err != nil {
		s.err, s.done = err, time.Now()
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status, s.done = resp.StatusCode, time.Now()
}

// openLoop sends specs at rate per second from a schedule fixed in
// advance, through conns workers; a request waiting for a free
// connection keeps its scheduled time.
func openLoop(c *http.Client, base string, specs []*reqSpec, rate float64, conns int) ([]*sample, []float64) {
	samples := make([]*sample, len(specs))
	lag := make([]float64, len(specs))
	jobs := make(chan int, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				send(c, base, samples[i])
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i, sp := range specs {
		due := t0.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		lag[i] = ms(time.Since(due))
		samples[i] = &sample{spec: sp, open: true, sched: due}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples, lag
}

// closedLoop runs conns clients back to back over specs until dur ends.
func closedLoop(c *http.Client, base string, specs []*reqSpec, dur time.Duration, conns int) ([]*sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []*sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := next.Add(1) - 1
				s := &sample{spec: specs[int(i)%len(specs)]}
				s.sched = time.Now()
				send(c, base, s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// wireResp is the part of a QuantifyResponse the checks read.
type wireResp struct {
	Cache            string    `json:"cache"`
	KnowledgeApplied int       `json:"knowledge_applied"`
	Posterior        []wireRow `json:"posterior"`
	Solver           struct {
		Iterations       int     `json:"iterations"`
		Evaluations      int     `json:"evaluations"`
		Converged        bool    `json:"converged"`
		MaxViolation     float64 `json:"max_violation"`
		ReusedComponents int     `json:"reused_components"`
		DirtyComponents  int     `json:"dirty_components"`
	} `json:"solver"`
	TimingsMS map[string]float64 `json:"timings_ms"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// serveAgg gathers what the checks read off the responses.
type serveAgg struct {
	mu                               sync.Mutex
	latency                          map[string][]float64 // open-loop, by hit/miss/delta/batch
	all                              []float64            // open-loop, every request
	prepare, formulate, solve        []float64
	handler, transport               []float64
	reused, dirty, iterations, evals []float64
	reqKB, respKB                    []float64
	// firstSingle keeps one single answer per (view, knowledge) for the
	// batch comparison; batches lists the batch answers to compare.
	firstSingle map[string]*posterior
	batches     []batchAnswer
}

type batchAnswer struct {
	ref             *viewRef
	key             string
	p               *posterior
	sample, variant int
}

func newServeAgg() *serveAgg {
	return &serveAgg{latency: map[string][]float64{}, firstSingle: map[string]*posterior{}}
}

// checkAnswer runs the posterior checks on one answer about p with the
// knowledge JSON know.
func checkAnswer(p *servePub, know []byte, r *wireResp) (*posterior, error) {
	ref, err := p.refs()
	if err != nil {
		return nil, err
	}
	ks, err := knowRefsFromJSON(ref, know)
	if err != nil {
		return nil, err
	}
	if r.KnowledgeApplied != len(ks) {
		return nil, fmt.Errorf("knowledge: %d statements applied, %d sent", r.KnowledgeApplied, len(ks))
	}
	post, err := posteriorFromWire(ref, r.Posterior)
	if err != nil {
		return nil, err
	}
	if err := checkRows(ref, post); err != nil {
		return nil, err
	}
	if err := checkRules(ref, post, ks); err != nil {
		return nil, err
	}
	if err := checkSAMarginal(ref, post); err != nil {
		return nil, err
	}
	if len(ks) == 0 {
		if err := checkClosedForm(ref, post); err != nil {
			return nil, err
		}
	}
	return post, nil
}

// opResult is the verdict on one operation (a single request or one
// batch variant).
type opResult struct {
	what      string
	err       error
	converged bool
	viol      float64
	checkErr  error
}

// checkSamples decodes and checks every response on conns goroutines and
// fills agg; it returns the opResults of each sample.
func checkSamples(samples []*sample, agg *serveAgg, conns int) [][]opResult {
	results := make([][]opResult, len(samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				results[i] = checkSample(i, samples[i], agg)
			}
		}()
	}
	wg.Wait()
	return results
}

func checkSample(idx int, s *sample, agg *serveAgg) []opResult {
	nOps := len(s.spec.know)
	fail := func(err error) []opResult {
		out := make([]opResult, nOps)
		for i := range out {
			out[i] = opResult{what: fmt.Sprintf("%s %s", s.spec.kind, s.spec.pub.name), err: err}
		}
		return out
	}
	if s.err != nil {
		return fail(s.err)
	}
	if s.status != http.StatusOK {
		return fail(fmt.Errorf("%s %s: status %d: %.200s", s.spec.kind, s.spec.path, s.status, s.body))
	}
	var answers []json.RawMessage
	elapsed := 0.0
	if s.spec.kind == kindBatch {
		var br struct {
			Variants []struct {
				Index    int             `json:"index"`
				Response json.RawMessage `json:"response"`
				Error    *struct {
					Error string `json:"error"`
				} `json:"error"`
			} `json:"variants"`
			ElapsedMS float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(s.body, &br); err != nil {
			return fail(err)
		}
		if len(br.Variants) != nOps {
			return fail(fmt.Errorf("batch: %d variants answered, %d sent", len(br.Variants), nOps))
		}
		for i, v := range br.Variants {
			if v.Index != i || v.Error != nil {
				return fail(fmt.Errorf("batch variant %d failed: %+v", i, v.Error))
			}
			answers = append(answers, v.Response)
		}
		elapsed = br.ElapsedMS
	} else {
		answers = []json.RawMessage{s.body}
	}
	out := make([]opResult, nOps)
	var cache string
	var timings []map[string]float64
	for i, raw := range answers {
		what := fmt.Sprintf("%s %s variant %d", s.spec.kind, s.spec.pub.name, i)
		var r wireResp
		if err := json.Unmarshal(raw, &r); err != nil {
			out[i] = opResult{what: what, err: err}
			continue
		}
		res := opResult{what: fmt.Sprintf("%s (cache %s, %d iterations)", what, r.Cache, r.Solver.Iterations),
			converged: r.Solver.Converged, viol: r.Solver.MaxViolation}
		post, err := checkAnswer(s.spec.pub, s.spec.know[i], &r)
		res.checkErr = err
		out[i] = res
		cache = r.Cache
		timings = append(timings, r.TimingsMS)
		if s.spec.kind != kindBatch {
			elapsed = r.ElapsedMS
		}
		agg.mu.Lock()
		agg.iterations = append(agg.iterations, float64(r.Solver.Iterations))
		agg.evals = append(agg.evals, float64(r.Solver.Evaluations))
		if s.spec.kind == kindDelta {
			agg.reused = append(agg.reused, float64(r.Solver.ReusedComponents))
			agg.dirty = append(agg.dirty, float64(r.Solver.DirtyComponents))
		}
		if post != nil && s.spec.kind != kindDelta {
			key := s.spec.pub.name + "\x00" + string(s.spec.know[i])
			if s.spec.kind == kindBatch {
				agg.batches = append(agg.batches, batchAnswer{ref: s.spec.pub.ref, key: key, p: post, sample: idx, variant: i})
			} else if agg.firstSingle[key] == nil {
				agg.firstSingle[key] = post
			}
		}
		agg.mu.Unlock()
	}
	agg.mu.Lock()
	defer agg.mu.Unlock()
	var staged float64
	for _, tm := range timings {
		for stage, v := range tm {
			staged += v
			switch stage {
			case core.StagePrepare:
				agg.prepare = append(agg.prepare, v)
			case core.StageFormulate:
				agg.formulate = append(agg.formulate, v)
			case core.StageSolve:
				agg.solve = append(agg.solve, v)
			}
		}
	}
	if s.spec.kind != kindBatch {
		agg.handler = append(agg.handler, elapsed-staged)
	}
	agg.transport = append(agg.transport, ms(s.done.Sub(s.sent))-elapsed)
	agg.reqKB = append(agg.reqKB, float64(len(s.spec.body))/1024)
	agg.respKB = append(agg.respKB, float64(len(s.body))/1024)
	if s.open {
		lat := ms(s.done.Sub(s.sched))
		kind := s.spec.kind
		if kind == kindHot || kind == kindCold {
			kind = cache // hit or miss, as the daemon reports it
		}
		agg.latency[kind] = append(agg.latency[kind], lat)
		agg.all = append(agg.all, lat)
	}
	return out
}

// compareBatches holds each batch answer to the single answer for the
// same view and knowledge and marks a mismatch as that operation's check
// failure.
func (agg *serveAgg) compareBatches(results [][]opResult) {
	for _, b := range agg.batches {
		single := agg.firstSingle[b.key]
		r := &results[b.sample][b.variant]
		if single == nil || r.checkErr != nil {
			continue
		}
		r.checkErr = compareWeighted("batch-vs-single", b.ref, single, b.p, tolBatch)
	}
}

// serveRun is one pass of load against a daemon.
type serveRun struct {
	open, closed  []*sample
	lag           []float64
	closedElapsed time.Duration
	before, after map[string]float64
	rssMB         float64
	// cpu is the daemon's CPU time over both phases.
	cpu time.Duration
}

// drive runs the open loop then the closed loop and scrapes /metrics
// around them.
func drive(d *daemon, conns int, open []*reqSpec, rate float64, closed []*reqSpec, closedDur time.Duration) (*serveRun, error) {
	c := newClient(conns)
	defer c.CloseIdleConnections()
	r := &serveRun{}
	var err error
	if r.before, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.open, r.lag = openLoop(c, d.base, open, rate, conns)
	if len(closed) > 0 {
		r.closed, r.closedElapsed = closedLoop(c, d.base, closed, closedDur, conns)
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	if r.after, err = d.scrape(); err != nil {
		return nil, err
	}
	r.rssMB, err = peakRSSMB(d.cmd.Process.Pid)
	return r, err
}

// tallySamples checks every sample and records its operations.
func tallySamples(t *tally, samples []*sample, agg *serveAgg, conns int) {
	results := checkSamples(samples, agg, conns)
	agg.compareBatches(results)
	for _, rs := range results {
		for _, r := range rs {
			t.record(r.what, r.err, r.converged, r.viol, func() error { return r.checkErr })
		}
	}
}

// serveSetup generates the views, mines their rules, builds every request
// body and starts pmaxentd.
func serveSetup(cfg config) (hot, cold []*servePub, d *daemon, err error) {
	for i := 0; i < serveHot+serveCold; i++ {
		tbl := adult.Generate(adult.Config{Records: serveRecords, Seed: cfg.seed*100 + int64(i) + 1})
		bv, _, err := bucket.Anatomize(tbl, bucket.Options{L: 5, ExemptMostFrequent: true})
		if err != nil {
			return nil, nil, nil, err
		}
		rules, err := assoc.Mine(tbl, assoc.Options{MinSupport: 3, Sizes: []int{1, 2}})
		if err != nil {
			return nil, nil, nil, err
		}
		isCold := i >= serveHot
		o := servePubOptions{bound: serveBounds[i%len(serveBounds)], cold: isCold}
		p, err := newServePub(fmt.Sprintf("view-%d", i), bv, rules, o)
		if err != nil {
			return nil, nil, nil, err
		}
		if isCold {
			cold = append(cold, p)
		} else {
			p.tbl = tbl
			hot = append(hot, p)
		}
	}
	d, err = startDaemon(cfg, "serve")
	return hot, cold, d, err
}

// prime loads each hot view into the daemon's prepared cache and starts
// its delta chain (one single and one delta request each), so the load
// starts with the hot set cached.
func prime(cfg config, d *daemon, hot []*servePub) error {
	c := newClient(cfg.nproc)
	defer c.CloseIdleConnections()
	for _, p := range hot {
		for _, body := range [][]byte{p.single, p.delta} {
			s := &sample{spec: &reqSpec{path: "/v1/quantify", body: body}}
			send(c, d.base, s)
			if s.err != nil || s.status != http.StatusOK {
				return fmt.Errorf("priming %s: status %d err %v", p.name, s.status, s.err)
			}
		}
	}
	return nil
}

func runServe(cfg config) (*outcome, error) {
	var setup, setupWall []float64
	var hot, cold []*servePub
	var d *daemon
	for r := 0; r < serveSetupRepeats; r++ {
		// Each set-up starts from a collected heap that holds nothing of
		// the one before.
		runtime.GC()
		c0, start := selfCPU(), time.Now()
		var err error
		if hot, cold, d, err = serveSetup(cfg); err != nil {
			return nil, err
		}
		// Set-up CPU is this process's and the daemon's up to /readyz.
		daemonCPU, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			d.stop()
			return nil, err
		}
		setup = append(setup, (selfCPU() - c0 + daemonCPU).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
		if r < serveSetupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("pmaxentd exit: %w", err)
			}
			hot, cold = nil, nil
		}
	}
	// Priming is load, not set-up, so it is left out of setup_s.
	if err := prime(cfg, d, hot); err != nil {
		d.stop()
		return nil, err
	}
	pl := newPlanner(cfg.seed, hot, cold, serveBlock)
	// The open loop sends whole blocks, so every run has the same mix.
	nOpen := len(serveBlock) * int(serveOpenShare*float64(cfg.seconds)*serveRate/float64(len(serveBlock)))
	closedDur := time.Duration((1 - serveOpenShare) * float64(cfg.seconds) * float64(time.Second))
	openSpecs := pl.take(nOpen)
	// More requests than the daemon can answer in the closed phase.
	closedSpecs := pl.take(200 * cfg.seconds)
	run, err := drive(d, cfg.nproc, openSpecs, serveRate, closedSpecs, closedDur)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("pmaxentd exit: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}

	loadgenRSS, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	t := newTally()
	agg := newServeAgg()
	tallySamples(t, append(append([]*sample(nil), run.open...), run.closed...), agg, cfg.nproc)
	throughput := float64(len(run.closed)) / run.closedElapsed.Seconds()
	out := &outcome{tally: t, report: map[string]metric{
		"setup_wall_s":       {median(setupWall), "s"},
		"op_p50_ms":          {median(agg.all), "ms"},
		"hit_p50_ms":         {median(agg.latency["hit"]), "ms"},
		"miss_p50_ms":        {median(agg.latency["miss"]), "ms"},
		"delta_p50_ms":       {median(agg.latency[kindDelta]), "ms"},
		"batch_p50_ms":       {median(agg.latency[kindBatch]), "ms"},
		"p90_ms":             {quantile(agg.all, 0.9), "ms"},
		"throughput_rps":     {throughput, "req/s"},
		"rss_mb":             {run.rssMB, "MB"},
		"open_requests":      {float64(len(run.open)), "count"},
		"closed_requests":    {float64(len(run.closed)), "count"},
		"loadgen.lag_p90_ms": {quantile(run.lag, 0.9), "ms"},
		"loadgen_rss_mb":     {loadgenRSS, "MB"},
		"daemon_cpu_s":       {run.cpu.Seconds(), "s"},
	}}
	for _, k := range []string{"hit", "miss", kindDelta, kindBatch} {
		out.report["open_"+k+"_requests"] = metric{float64(len(agg.latency[k])), "count"}
	}
	if !cfg.trace {
		cpuPerReq := ms(run.cpu) / float64(len(run.open)+len(run.closed))
		out.metrics = endToEnd(setup, cpuPerReq, run.rssMB)
		return out, nil
	}
	tr := newTracer()
	out.tracer = tr
	m := map[string]metric{}
	recordLoadSpans(tr, run)
	serveLayerMetrics(run, agg, m)
	ls := &layerStats{}
	// Publishing and the pipeline layers, replayed on two hot views.
	for i, p := range hot[:2] {
		tr.span("serve.publish", 0, -1-i, func(root int) {
			_, _, _, err = tracedPublish(tr, root, -1-i, p.tbl, []int{1, 2}, ls)
		})
		if err != nil {
			return nil, err
		}
	}
	overhead, err := replayServe(tr, hot[:2], ls, m)
	if err != nil {
		return nil, err
	}
	pipelineLayerMetrics(tr, ls, m)
	// The daemon's own solve time stands for the solver layer here.
	m["maxent.solve_ms"] = metric{median(agg.solve), "ms"}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	out.metrics = m
	return out, nil
}

// recordLoadSpans turns the load's timestamps into spans after the fact:
// a root per request with the wait for a connection and the exchange.
func recordLoadSpans(tr *tracer, run *serveRun) {
	for i, s := range append(append([]*sample(nil), run.open...), run.closed...) {
		op := 1000000 + i
		root := tr.record("loadgen.request", 0, op, s.sched, s.done)
		tr.record("loadgen.wait", root, op, s.sched, s.sent)
		tr.record("server.exchange", root, op, s.sent, s.done)
	}
}

// serveLayerMetrics fills the per-layer metrics read off the daemon: the
// responses' timings and solver blocks, /metrics counters and the load
// generator's lag.
func serveLayerMetrics(run *serveRun, agg *serveAgg, m map[string]metric) {
	delta := func(name string) float64 { return run.after[name] - run.before[name] }
	perCount := func(name string) float64 {
		n := delta(name + "_count")
		if n == 0 {
			return 0
		}
		return 1000 * delta(name+"_sum") / n
	}
	m["server.handler_ms"] = metric{median(agg.handler), "ms"}
	m["server.transport_ms"] = metric{median(agg.transport), "ms"}
	m["server.request_kb"] = metric{mean(agg.reqKB), "KB"}
	m["server.response_kb"] = metric{mean(agg.respKB), "KB"}
	m["core.prepare_ms"] = metric{median(agg.prepare), "ms"}
	m["core.formulate_ms"] = metric{median(agg.formulate), "ms"}
	m["server.cache_hits"] = metric{delta("pmaxentd_cache_hits_total"), "count"}
	m["server.cache_misses"] = metric{delta("pmaxentd_cache_misses_total"), "count"}
	m["server.cache_evictions"] = metric{delta("pmaxentd_cache_evictions_total"), "count"}
	m["server.coalesced"] = metric{delta("pmaxentd_coalesced_total"), "count"}
	m["server.shed"] = metric{delta("pmaxentd_shed_total"), "count"}
	m["server.queue_wait_ms"] = metric{perCount("pmaxentd_queue_wait_seconds"), "ms"}
	m["history.append_ms"] = metric{perCount("pmaxentd_history_append_duration_seconds"), "ms"}
	m["history.records"] = metric{delta("pmaxentd_history_records_total"), "count"}
	m["history.dropped"] = metric{delta("pmaxentd_history_dropped_total"), "count"}
	m["maxent.delta_reused_components"] = metric{median(agg.reused), "count"}
	m["maxent.delta_dirty_components"] = metric{median(agg.dirty), "count"}
	m["loadgen.lag_ms"] = metric{quantile(run.lag, 0.9), "ms"}
}

// replayServe feeds the serve path's payloads through the layers in
// process — decode, digest, prepare, quantify, encode — once to warm up,
// once without and once with spans, and returns the tracing overhead in
// percent.
func replayServe(tr *tracer, pubs []*servePub, ls *layerStats, m map[string]metric) (float64, error) {
	var plain, traced time.Duration
	// Pass 0 warms caches and the heap and is not counted; pass 1 runs
	// without spans, pass 2 with them.
	for pass := 0; pass < 3; pass++ {
		ptr := tr
		if pass < 2 {
			ptr = nil
		}
		for pi, p := range pubs {
			var base *constraint.System
			for v, know := range p.batchKnow() {
				op := 2000000 + pass*10000 + pi*100 + v
				var err error
				dur := ptr.span("serve.replay", 0, op, func(root int) {
					var d *bucket.Bucketized
					var ks []constraint.DistributionKnowledge
					ptr.span("server.decode", root, op, func(int) {
						if d, err = bucket.ReadJSON(bytes.NewReader(p.view)); err == nil && know != nil {
							ks, err = constraint.ParseKnowledgeJSON(bytes.NewReader(know), d.Schema())
						}
					})
					if err != nil {
						return
					}
					ptr.span("server.digest", root, op, func(int) { _, err = server.DigestPublished(d) })
					if err != nil {
						return
					}
					if base == nil {
						ptr.span("core.prepare", root, op, func(id int) { base = tracedBase(ptr, id, op, d) })
					}
					var res *tracedResult
					alloc := allocMB(func() { res, err = tracedSolve(ptr, root, op, base, ks, nil, maxent.Options{}, ls) })
					if err != nil {
						return
					}
					if pass == 2 {
						ls.allocMB = append(ls.allocMB, alloc)
					}
					resp := wireResponse(d.Schema(), res)
					ptr.span("server.encode", root, op, func(int) { _, err = json.Marshal(resp) })
				})
				if err != nil {
					return 0, err
				}
				switch pass {
				case 1:
					plain += dur
				case 2:
					traced += dur
				}
			}
		}
	}
	m["server.decode_ms"] = metric{tr.layerMedian("server.decode"), "ms"}
	m["server.digest_ms"] = metric{tr.layerMedian("server.digest"), "ms"}
	m["server.encode_ms"] = metric{tr.layerMedian("server.encode"), "ms"}
	return 100 * (traced.Seconds()/plain.Seconds() - 1), nil
}

// wireResponse builds the QuantifyResponse the daemon would encode for a
// solve (posterior rows as attribute/value maps).
func wireResponse(schema *dataset.Schema, res *tracedResult) *server.QuantifyResponse {
	post := res.post
	u := post.Universe()
	sa := schema.SA()
	rows := make([]server.PosteriorRow, u.Len())
	for qid := range rows {
		codes := u.Codes(qid)
		qi := map[string]string{}
		for i, pos := range schema.QIIndices() {
			qi[schema.Attr(pos).Name] = schema.Attr(pos).Value(codes[i])
		}
		p := map[string]float64{}
		for s := 0; s < post.NumSA(); s++ {
			p[sa.Value(s)] = post.P(qid, s)
		}
		rows[qid] = server.PosteriorRow{QI: qi, P: p}
	}
	st := res.sol.Stats
	return &server.QuantifyResponse{Cache: "hit", KnowledgeApplied: len(res.knowledge), Posterior: rows,
		Solver: server.SolverStats{Algorithm: "lbfgs", Iterations: st.Iterations, Evaluations: st.Evaluations,
			Converged: st.Converged, MaxViolation: st.MaxViolation, Components: st.Components}}
}

// probeServe is the serve layers' probe in the in-process workloads'
// traced runs, which must print every per-layer metric, serve-side ones
// included: pmaxentd answers two blocks of the serve-mix mix about the
// workload's own views (the first hot, the others cold), and the serve
// path is replayed in process on the same payloads.
func probeServe(cfg config, tr *tracer, pubs []*servePub, m map[string]metric) error {
	d, err := startDaemon(cfg, "probe")
	if err != nil {
		return err
	}
	cold := pubs[1:]
	if len(cold) == 0 {
		cold = pubs
	}
	pl := newPlanner(cfg.seed, pubs[:1], cold, serveBlock)
	run, err := drive(d, cfg.nproc, pl.take(2*len(serveBlock)), 2, nil, 0)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("pmaxentd exit: %w", stopErr)
	}
	if err != nil {
		return err
	}
	agg := newServeAgg()
	probeTally := newTally()
	tallySamples(probeTally, run.open, agg, cfg.nproc)
	if n := probeTally.totalFailed(); n > 0 {
		return fmt.Errorf("serve probe: %d of %d operations failed: %v", n, probeTally.attempted, probeTally.examples)
	}
	recordLoadSpans(tr, run)
	serveLayerMetrics(run, agg, m)
	_, err = replayServe(tr, pubs[:1], &layerStats{}, m)
	return err
}
