package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/serve"
	"schemamap/internal/tgd"
)

// serveBatches is the number of append batches in a session script.
const serveBatches = 4

// scenarioName is the name the server's corpus exposes the scenario
// under.
const scenarioName = "M"

// serveLoad drives the session API of serve.NewServer over loopback
// HTTP with nproc closed-loop clients. An op is one session script:
// create by name (a prepared-problem cache hit) → cold collective solve
// → serveBatches × (append batch + warm solve) → delete. The first
// append forks the shared problem (copy-on-append); later appends go
// to the already-forked session.
type serveLoad struct {
	I, initial *data.Instance
	cands      tgd.Mapping
	batches    [][]byte // append request bodies
	nproc      int
	ref        []outcome // the cold solve, then the warm solves
	pinned     []outcome // the default seed's references, if pinned

	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	// Set by reference, reported by endPhase.
	replayPairs  int
	replayIterUs []float64
	scrape0      map[string]float64
}

type wireTuple struct {
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
}

func newServe(seed int64, short bool) (workload, error) {
	spec := bench.Scales()[1] // M: N=28, Rows=24, seed 28
	if short {
		spec = bench.Scales()[0]
	}
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		return nil, err
	}
	stream, err := ibench.SplitTarget(sc, ibench.StreamConfig{Batches: serveBatches, Seed: spec.Seed + 1})
	if err != nil {
		return nil, err
	}
	perm := newPermuter(seed)
	s := &serveLoad{
		I:       perm.instance(sc.I),
		initial: perm.instance(stream.Initial),
		cands:   perm.mapping(sc.Candidates),
		nproc:   runtime.GOMAXPROCS(0),
		pinned:  pinnedFor("serve", seed, short),
	}
	for _, batch := range stream.Batches {
		wire := make([]wireTuple, 0, len(batch))
		for _, t := range perm.tuples(batch) {
			args := make([]string, len(t.Args))
			for i, v := range t.Args {
				args[i] = ibench.EncodeValue(v)
			}
			wire = append(wire, wireTuple{Rel: t.Rel, Args: args})
		}
		body, err := json.Marshal(map[string]any{"tuples": wire})
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, body)
	}

	named := *sc
	named.I, named.J, named.Candidates = s.I, s.initial, s.cands
	s.srv = serve.NewServer(serve.Config{
		MaxSessions: 64,
		IdleTimeout: -1, // the clients delete their own sessions
		Parallelism: s.nproc,
		Scenarios: map[string]serve.ScenarioSource{
			scenarioName: func() (*ibench.Scenario, error) { return &named, nil },
		},
	})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * s.nproc}}

	// Cache warm-up: the first create by name prepares the problem.
	var created struct{ ID string }
	if _, _, err := s.call(context.Background(), http.MethodPost, "/sessions", createBody, &created); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up create: %w", err)
	}
	if _, _, err := s.call(context.Background(), http.MethodDelete, "/sessions/"+created.ID, nil, nil); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up delete: %w", err)
	}
	return s, nil
}

var (
	createBody    = []byte(`{"name":"` + scenarioName + `"}`)
	coldSolveBody = []byte(`{"solver":"collective"}`)
	warmSolveBody = []byte(`{"solver":"collective","warm":true}`)
)

func (s *serveLoad) clients() int { return s.nproc }

func (s *serveLoad) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// reference replays the session script through the core API, the way
// the server runs it: a cold solve on the shared prepared problem,
// then a fork that takes the appends and the warm solves.
func (s *serveLoad) reference(ctx context.Context, tr *tracer) error {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	solver := core.MustGet("collective")
	par := core.WithParallelism(s.nproc)
	sp := tr.begin("core.prepare", root)
	p := core.NewProblem(s.I, s.initial, s.cands)
	p.PrepareN(s.nproc)
	tr.end(sp)
	for _, a := range p.Analyses() {
		s.replayPairs += len(a.Pairs)
	}
	extra := map[string][]float64{}
	prev, err := solveSpan(ctx, tr, root, "core.cold_solve", solver, p, extra, par)
	if err != nil {
		return err
	}
	s.ref = []outcome{outcomeOf(prev)}
	sp = tr.begin("core.fork", root)
	q := p.Fork()
	q.PrepareStreaming(s.nproc)
	tr.end(sp)
	for k, body := range s.batches {
		var req struct{ Tuples []wireTuple }
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		tuples := make([]data.Tuple, len(req.Tuples))
		for i, w := range req.Tuples {
			tuples[i] = data.Tuple{Rel: w.Rel, Args: make([]data.Value, len(w.Args))}
			for a, v := range w.Args {
				if tuples[i].Args[a], err = ibench.DecodeValue(v); err != nil {
					return err
				}
			}
		}
		sp = tr.begin("core.append", root)
		_, err := q.AppendTarget(tuples)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("batch %d: %w", k, err)
		}
		if prev, err = solveSpan(ctx, tr, root, "core.warm_solve", solver, q, extra, par, core.WithWarmStart(prev)); err != nil {
			return err
		}
		s.ref = append(s.ref, outcomeOf(prev))
	}
	s.replayIterUs = extra["psl.iter_us"]
	if s.pinned != nil {
		s.ref = s.pinned
	}
	return nil
}

type solveReply struct {
	Selected    []int
	Objective   struct{ Total float64 }
	Iterations  int
	SolveMillis float64
}

type appendReply struct {
	Added         int
	Forked        bool
	ChangedTuples int
	PairsChanged  int
	AppendMillis  float64
}

func (s *serveLoad) op(ctx context.Context, tr *tracer) opResult {
	root := tr.begin("op", 0)
	start := time.Now()
	var r opResult
	exact := map[string]float64{"psl.admm_iterations": 0, "cover.pairs_changed": 0, "cover.changed_tuples": 0}
	extra := map[string][]float64{}
	var got []outcome
	var reqBytes, respBytes int
	call := func(name, method, path string, body []byte, out any) (float64, error) {
		sp := tr.begin(name, root)
		lat, n, err := s.call(ctx, method, path, body, out)
		tr.end(sp)
		reqBytes += len(body)
		respBytes += n
		return lat, err
	}
	err := func() error {
		var created struct {
			ID            string
			SharedPrepare bool
		}
		if _, err := call("serve.create", http.MethodPost, "/sessions", createBody, &created); err != nil {
			return err
		}
		sess := "/sessions/" + created.ID
		defer func() {
			if _, err := call("serve.delete", http.MethodDelete, sess, nil, nil); err != nil && r.err == nil {
				r.err = err
			}
		}()
		if !created.SharedPrepare {
			return fmt.Errorf("create by name did not reuse the prepared problem")
		}
		var sol solveReply
		lat, err := call("serve.solve", http.MethodPost, sess+"/solve", coldSolveBody, &sol)
		if err != nil {
			return err
		}
		r.solveMs = append(r.solveMs, lat)
		extra["serve.solve_overhead_ms"] = append(extra["serve.solve_overhead_ms"], lat-sol.SolveMillis)
		exact["psl.admm_iterations"] += float64(sol.Iterations)
		got = append(got, outcome{sol.Objective.Total, digestOf(sol.Selected)})
		for k, body := range s.batches {
			name := "serve.append"
			if k == 0 {
				name = "serve.fork_append"
			}
			var app appendReply
			lat, err := call(name, http.MethodPost, sess+"/append", body, &app)
			if err != nil {
				return err
			}
			if app.Forked != (k == 0) {
				return fmt.Errorf("append %d: forked=%v, want a fork on the first append only", k, app.Forked)
			}
			if k > 0 {
				r.appendMs = append(r.appendMs, lat)
			}
			extra["serve.append_overhead_ms"] = append(extra["serve.append_overhead_ms"], lat-app.AppendMillis)
			exact["cover.pairs_changed"] += float64(app.PairsChanged)
			exact["cover.changed_tuples"] += float64(app.ChangedTuples)
			r.tuples += app.Added
			var sol solveReply
			if _, err := call("serve.warm_solve", http.MethodPost, sess+"/solve", warmSolveBody, &sol); err != nil {
				return err
			}
			exact["psl.admm_iterations"] += float64(sol.Iterations)
			got = append(got, outcome{sol.Objective.Total, digestOf(sol.Selected)})
		}
		return nil
	}()
	r.ms = ms(time.Since(start))
	tr.end(root)
	if err == nil {
		err = r.err
	}
	if err == nil {
		err = checkAll(s.ref, got)
	}
	if err != nil {
		return opResult{err: fmt.Errorf("serve: %w", err)}
	}
	if tr != nil {
		exact["serve.request_bytes"] = float64(reqBytes)
		exact["serve.response_bytes"] = float64(respBytes)
		r.exact, r.extra = exact, extra
	}
	return r
}

// millisField matches the wall-time fields a response reports.
var millisField = regexp.MustCompile(`("[A-Za-z]+Millis"):-?[0-9][0-9.eE+-]*`)

// call sends one request and decodes the JSON reply into out. It
// returns the client-side latency in ms and the response size in
// bytes, counted with every server-reported wall time written as 0 so
// that the count depends only on the content.
func (s *serveLoad) call(ctx context.Context, method, path string, body []byte, out any) (float64, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := ms(time.Since(start))
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return 0, 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return lat, len(millisField.ReplaceAll(payload, []byte("${1}:0"))), nil
}

// scrape reads the server's counters from GET /metrics; it returns nil
// when the server does not answer.
func (s *serveLoad) scrape() map[string]float64 {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

func (s *serveLoad) beginPhase() { s.scrape0 = s.scrape() }

// endPhase reports the server's fork and cache counters over the phase,
// and the prepare and ADMM figures of the core-API replay.
func (s *serveLoad) endPhase(ops int) map[string]float64 {
	m := s.scrape()
	out := map[string]float64{
		"cover.pairs": float64(s.replayPairs),
		"psl.iter_us": median(s.replayIterUs),
	}
	if m == nil || s.scrape0 == nil {
		return out // the server counters read 0: GET /metrics failed
	}
	delta := func(name string) float64 { return m[name] - s.scrape0[name] }
	hits, misses := delta("serve_prepare_cache_hits_total"), delta("serve_prepare_cache_misses_total")
	if ops > 0 {
		out["serve.forks"] = delta("serve_session_forks_total") / float64(ops)
	}
	if hits+misses > 0 {
		out["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	return out
}
