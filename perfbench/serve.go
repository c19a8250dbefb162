package main

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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/rtrace"
	"rats/internal/serve"
)

// The serve-mix traffic repeats a block of mixBlock requests whose slots
// are shuffled per seed: mostly catalog repeats (verdict-cache hits,
// some renamed), a quarter unique programs that miss the cache (a third
// of them in solve mode), a few witness requests on renamed illegal
// programs, and a malformed request.
const (
	mixBlock     = 50
	mixHits      = 34
	mixUnique    = 13
	mixWitness   = 2
	mixMalformed = mixBlock - mixHits - mixUnique - mixWitness
)

type reqKind uint8

const (
	kindHit reqKind = iota
	kindUnique
	kindWitness
	kindMalformed
)

// heavyCases are the two catalog programs that dominate a catalog pass;
// serve-mix sends them only unrenamed, so its set-up need not check them.
var heavyCases = map[string]bool{"RefCounter": true, "RefCounterTwo": true}

// hitReq is a catalog repeat and the response it must get.
type hitReq struct {
	body []byte
	want string
}

// malformed requests and the error kind each must get.
var malformed = []struct {
	body []byte
	kind string
}{
	{[]byte(`{"program": "litmus \"x\"`), "bad_json"},
	{mustJSON(serve.CheckRequest{Program: "litmus \"p\"\nthread t0\nfrobnicate X\n"}), "parse"},
	{mustJSON(serve.CheckRequest{Program: litmus.Format(litmus.MPData()), Model: "TSO"}), "validate"},
	{mustJSON(serve.CheckRequest{Program: litmus.Format(contended(9, 1))}), "validate"},
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// planned is one request of the mix, derived from (seed, index) alone.
type planned struct {
	kind    reqKind
	body    []byte
	want    string // expected rendering (hits) or error kind (malformed)
	program string // program text (unique, witness)
	model   core.Model
}

type serveBench struct {
	cfg      config
	base     string
	srv      *exec.Cmd
	stderrWG sync.WaitGroup
	slots    [mixBlock]reqKind
	hits     []hitReq
	witness  []solveProg // light illegal (program, model) pairs
	before   map[string]float64
	after    map[string]float64
	access   string // traced: wide-event access log
	tracesTo string // traced: full span trees
	// recs holds every request's outcome, indexed by request number.
	mu   sync.Mutex
	recs []reqRecord
}

type reqRecord struct {
	kind    reqKind
	latMs   float64
	span    opSpan
	traceID string
	err     error
	// got is the rendered response of unique and witness requests,
	// verified against a local check after the timed window.
	got string
}

func setupServe(cfg config) (bench, error) {
	if cfg.serveBin == "" {
		return nil, errors.New("serve-mix needs -serve-bin")
	}
	s, fill, err := newServeMix(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	if err := s.fill(fill); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// newServeMix builds the traffic's fixed inputs: the shuffled slot
// pattern, the catalog repeats with their expected responses (pinned for
// the catalog as written, checked locally for the renamed variants), and
// the illegal programs witness requests use. It returns the requests
// that fill the service's verdict cache.
func newServeMix(cfg config) (*serveBench, []hitReq, error) {
	s := &serveBench{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range s.slots {
		switch {
		case i < mixHits:
			s.slots[i] = kindHit
		case i < mixHits+mixUnique:
			s.slots[i] = kindUnique
		case i < mixHits+mixUnique+mixWitness:
			s.slots[i] = kindWitness
		default:
			s.slots[i] = kindMalformed
		}
	}
	rng.Shuffle(len(s.slots), func(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] })

	refs := splitDiff(catalogRef)
	var fill []hitReq
	for _, tc := range litmus.Suite() {
		src := litmus.Format(tc.Prog)
		var variant *litmus.Program
		if !heavyCases[tc.Prog.Name] {
			v, err := litmus.Parse(litmus.Format(renamed(tc.Prog, "r"+strconv.Itoa(rng.Intn(1000)))))
			if err != nil {
				return nil, nil, fmt.Errorf("renamed %s: %w", tc.Prog.Name, err)
			}
			variant = v
		}
		for mi, m := range core.Models() {
			want, ok := refs[tc.Prog.Name+" model "+m.String()]
			if !ok {
				return nil, nil, fmt.Errorf("no pinned verdict for %s under %s", tc.Prog.Name, m)
			}
			h := hitReq{mustJSON(serve.CheckRequest{Program: src, Model: m.String()}), want}
			fill = append(fill, h)
			s.hits = append(s.hits, h)
			if variant == nil {
				continue
			}
			v, err := memmodel.CheckProgram(variant, m)
			if err != nil {
				return nil, nil, err
			}
			s.hits = append(s.hits, hitReq{
				mustJSON(serve.CheckRequest{Program: litmus.Format(variant), Model: m.String()}),
				renderVerdict(variant.Name, v)})
			if !tc.Legal[mi] {
				s.witness = append(s.witness, solveProg{prog: tc.Prog, model: m})
			}
		}
	}

	return s, fill, nil
}

// fill sends the catalog once, filling the verdict cache, then one
// untimed warm-up op.
func (s *serveBench) fill(reqs []hitReq) error {
	cl := newClient()
	for _, h := range append(reqs, s.hits[1]) {
		if err := s.expectHit(cl, h); err != nil {
			return fmt.Errorf("cache fill: %w", err)
		}
	}
	return nil
}

// splitDiff indexes a -diff rendering by its "NAME model M" headers.
func splitDiff(all string) map[string]string {
	out := map[string]string{}
	for _, chunk := range strings.SplitAfter(all, "\n\n") {
		if head, _, ok := strings.Cut(chunk, "\n"); ok {
			out[strings.TrimPrefix(head, "case ")] = chunk
		}
	}
	return out
}

// start launches ratsserve with its default options on a free loopback
// port (the traced run adds the access log and the trace export) and
// waits until it is ready.
func (s *serveBench) start() error {
	args := []string{"-addr", "127.0.0.1:0"}
	if s.cfg.traced {
		var err error
		if s.access, err = artifact(s.cfg, "serve-mix.access.jsonl"); err != nil {
			return err
		}
		if s.tracesTo, err = artifact(s.cfg, "serve-mix.server-traces.jsonl"); err != nil {
			return err
		}
		args = append(args, "-access-log", s.access, "-traces-out", s.tracesTo)
	}
	cmd := exec.Command(s.cfg.serveBin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start ratsserve: %w", err)
	}
	s.srv = cmd
	addr := make(chan string, 1)
	s.stderrWG.Add(1)
	go func() {
		defer s.stderrWG.Done()
		sc := bufio.NewScanner(errPipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); !sent && i >= 0 {
				addr <- strings.TrimSpace(line[i:])
				sent = true
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.close()
			return errors.New("ratsserve exited before listening")
		}
		s.base = a
	case <-time.After(30 * time.Second):
		s.close()
		return errors.New("ratsserve did not start listening")
	}
	cl := newClient()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := cl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return errors.New("ratsserve never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newClient is one closed-loop client: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post sends one /check request and returns the status, trace ID and body.
func (s *serveBench) post(cl *http.Client, body []byte) (int, string, []byte, error) {
	resp, err := cl.Post(s.base+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(serve.TraceHeader), raw, err
}

func (s *serveBench) expectHit(cl *http.Client, h hitReq) error {
	status, _, raw, err := s.post(cl, h.body)
	if err != nil {
		return err
	}
	got, err := rendered(status, raw)
	if err != nil {
		return err
	}
	if got != h.want {
		return fmt.Errorf("response differs from the local verdict:\n%s--- want ---\n%s", got, h.want)
	}
	return nil
}

// rendered decodes a 200 response into its -diff rendering.
func rendered(status int, raw []byte) (string, error) {
	if status != http.StatusOK {
		var er serve.ErrorResponse
		json.Unmarshal(raw, &er)
		return "", fmt.Errorf("HTTP %d (%s: %s)", status, er.Kind, er.Error)
	}
	var r serve.CheckResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return "", err
	}
	return diffText(r.Name, r.Model, r.Legal, r.Races, r.SCResults), nil
}

// splitmix is a small seedable rand.Source: request i's content comes
// from a generator seeded with (seed, i), so the traffic depends on the
// seed alone, never on which client sends what.
type splitmix struct{ x uint64 }

func (s *splitmix) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.x = uint64(seed) }

// plan derives request i.
func (s *serveBench) plan(i int) planned {
	rng := rand.New(&splitmix{uint64(s.cfg.seed)*0x100000001b3 ^ uint64(i)})
	p := planned{kind: s.slots[i%mixBlock]}
	switch p.kind {
	case kindHit:
		h := s.hits[rng.Intn(len(s.hits))]
		p.body, p.want = h.body, h.want
	case kindUnique:
		// A third of the unique programs go to the solver. They come from
		// the increment family, whose single SC result no search order can
		// miss: on random programs like the enumeration ones the solver
		// still drops SC results about once in 20000 checks (the open
		// solve-vs-enumerate divergence).
		name := "u" + strconv.Itoa(i)
		p.model = core.Models()[rng.Intn(3)]
		mode := ""
		var prog *litmus.Program
		if rng.Intn(3) == 0 {
			mode = string(memmodel.ModeSolve)
			prog, _ = incrementProgram(rng, name, 2+rng.Intn(2), func() int { return 1 + rng.Intn(3) }, int64(1000+2*i))
		} else {
			prog = randomSmallProgram(rng, name, int64(1000+i))
		}
		p.program = litmus.Format(prog)
		p.body = mustJSON(serve.CheckRequest{Program: p.program, Model: p.model.String(), Mode: mode})
	case kindWitness:
		w := s.witness[rng.Intn(len(s.witness))]
		p.model = w.model
		p.program = litmus.Format(renamed(w.prog, "w"+strconv.Itoa(i)))
		p.body = mustJSON(serve.CheckRequest{Program: p.program, Model: p.model.String(), Witness: true})
	case kindMalformed:
		m := malformed[rng.Intn(len(malformed))]
		p.body, p.want = m.body, m.kind
	}
	return p
}

// measure runs the closed loop: nproc clients, each sending its next
// request as soon as the previous reply arrives, for at least d and
// until minOps requests succeeded or giveUp windows passed.
func (s *serveBench) measure(d time.Duration, minOps int) (*measurement, error) {
	var err error
	if s.before, err = s.counters(); err != nil {
		return nil, err
	}
	var next, okOps atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			for {
				if el := time.Since(start); el >= d && (okOps.Load() >= int64(minOps) || el >= giveUp*d) {
					return
				}
				i := int(next.Add(1) - 1)
				p := s.plan(i)
				t0 := time.Since(start)
				status, tid, raw, err := s.post(cl, p.body)
				t1 := time.Since(start)
				rec := reqRecord{kind: p.kind, latMs: float64(t1-t0) / 1e6, span: opSpan{t0, t1}, traceID: tid}
				if err == nil {
					rec.got, rec.err = s.judge(p, status, raw)
				} else {
					rec.err = err
				}
				if rec.err == nil {
					okOps.Add(1)
				}
				s.mu.Lock()
				for len(s.recs) <= i {
					s.recs = append(s.recs, reqRecord{})
				}
				s.recs[i] = rec
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if s.after, err = s.counters(); err != nil {
		return nil, err
	}
	s.verifyLocal()
	m := &measurement{attempted: len(s.recs)}
	var spans []opSpan
	for i, r := range s.recs {
		if r.err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed request %d: %v\n", i, r.err)
			continue
		}
		m.latMs = append(m.latMs, r.latMs)
		spans = append(spans, r.span)
	}
	m.blockRates = blockRates(spans, elapsed, rateBlocks)
	return m, nil
}

// judge checks what can be checked at once — hits against their
// references, malformed requests against their error kinds — and
// returns the rendering of unique and witness responses for verifyLocal.
func (s *serveBench) judge(p planned, status int, raw []byte) (string, error) {
	if p.kind == kindMalformed {
		var er serve.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || status != http.StatusBadRequest || er.Kind != p.want {
			return "", fmt.Errorf("malformed request answered HTTP %d kind %q, want 400 %q", status, er.Kind, p.want)
		}
		return "", nil
	}
	got, err := rendered(status, raw)
	if err != nil {
		return "", err
	}
	switch p.kind {
	case kindHit:
		if got != p.want {
			return "", fmt.Errorf("response differs from the local verdict:\n%s--- want ---\n%s", got, p.want)
		}
	case kindWitness:
		var r serve.CheckResponse
		json.Unmarshal(raw, &r)
		got += r.Witness
	}
	return got, nil
}

// verifyLocal checks every unique and witness response against the
// library's own verdict (and witness) for the same program text — the
// served -diff contract — after the timed window, on nproc goroutines.
func (s *serveBench) verifyLocal() {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.recs); i += workers {
				r := &s.recs[i]
				if r.err != nil || (r.kind != kindUnique && r.kind != kindWitness) {
					continue
				}
				p := s.plan(i)
				want, err := localRendering(p)
				if err == nil && want != r.got {
					err = fmt.Errorf("response differs from the local verdict:\n%s--- want ---\n%s", r.got, want)
				}
				r.err = err
			}
		}(w)
	}
	wg.Wait()
}

func localRendering(p planned) (string, error) {
	prog, err := litmus.Parse(p.program)
	if err != nil {
		return "", err
	}
	v, err := memmodel.CheckProgram(prog, p.model)
	if err != nil {
		return "", err
	}
	out := renderVerdict(prog.Name, v)
	if p.kind == kindWitness {
		w, err := memmodel.FindWitness(prog, p.model)
		if err != nil || w == nil {
			return "", fmt.Errorf("local witness search: %v", err)
		}
		out += w.String()
	}
	return out, nil
}

// counters scrapes the service's rats_serve_*_total counters.
func (s *serveBench) counters() (map[string]float64, error) {
	resp, err := newClient().Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "rats_serve_") || !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(val)[0], 64)
		if err == nil {
			out[strings.TrimSuffix(strings.TrimPrefix(name, "rats_serve_"), "_total")] = v
		}
	}
	return out, sc.Err()
}

func (s *serveBench) delta(name string) float64 { return s.after[name] - s.before[name] }

func (s *serveBench) peakRSSMB() (float64, error) {
	return peakRSS(fmt.Sprintf("/proc/%d/status", s.srv.Process.Pid))
}

// close stops the service (SIGTERM drains it) and waits for it to exit.
func (s *serveBench) close() error {
	if s.srv == nil {
		return nil
	}
	s.srv.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		s.stderrWG.Wait()
		done <- s.srv.Wait()
	}()
	select {
	case err := <-done:
		s.srv = nil
		return err
	case <-time.After(20 * time.Second):
		s.srv.Process.Kill()
		err := <-done
		s.srv = nil
		return fmt.Errorf("ratsserve did not drain: %v", err)
	}
}

// layers reads the service's wide events and span trees once it has
// exited, joins them to the client's latencies by trace ID, and tiles
// each request: the top-level serve phases, the checker's spans under
// the flight and solve phases, and the client-side remainder
// (serve.outside_ms: loopback, HTTP and the obs server).
func (s *serveBench) layers(m *measurement) (map[string]float64, error) {
	if err := s.close(); err != nil {
		return nil, err
	}
	timed := map[string]reqRecord{}
	for _, r := range s.recs {
		if r.err == nil && r.traceID != "" {
			timed[r.traceID] = r
		}
	}
	out := map[string]float64{}
	n := float64(len(m.latMs))

	// Top-level phases from the wide-event access log.
	var serverMs float64
	if err := eachJSONLine(s.access, func(raw []byte) error {
		var we struct {
			TraceID    string             `json:"trace_id"`
			DurationMs float64            `json:"duration_ms"`
			PhasesMs   map[string]float64 `json:"phases_ms"`
		}
		if err := json.Unmarshal(raw, &we); err != nil {
			return err
		}
		if _, ok := timed[we.TraceID]; !ok {
			return nil
		}
		serverMs += we.DurationMs
		for ph, ms := range we.PhasesMs {
			out["serve."+ph+"_ms"] += ms / n
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out["serve.outside_ms"] = mean(m.latMs) - serverMs/n

	// The checker's share of the flight and solve phases, from the span
	// trees; it is taken out of those phases so the layers still tile.
	var traces []*rtrace.TraceData
	tl := tiling{}
	bucket := func(path []string) string {
		switch {
		case len(path) < 2 || (path[0] != "flight" && path[0] != "solve") || path[1] == "queue":
			return "serve"
		case path[0] == "flight" && len(path) == 2:
			return "memmodel.check_ms"
		case path[0] == "flight" && path[2] == "analyze.worker":
			return "memmodel.analyze_ms"
		case path[0] == "flight" && path[2] == "merge":
			return "memmodel.merge_ms"
		case path[0] == "flight":
			return "memmodel.enumerate_ms"
		case len(path) == 2:
			return "solve.check_ms"
		}
		return path[2] + "_ms"
	}
	if err := eachJSONLine(s.tracesTo, func(raw []byte) error {
		var td rtrace.TraceData
		if err := json.Unmarshal(raw, &td); err != nil {
			return err
		}
		if _, ok := timed[td.TraceID]; !ok {
			return nil
		}
		traces = append(traces, &td)
		tl.add(&td, bucket)
		return nil
	}); err != nil {
		return nil, err
	}
	for b, us := range tl.total() {
		if b == "serve" || b == "" {
			continue
		}
		ms := us / 1e3 / n
		out[b] += ms
		if strings.HasPrefix(b, "solve.") {
			out["serve.solve_ms"] -= ms
		} else {
			out["serve.flight_ms"] -= ms
		}
	}
	var sum float64
	for _, lm := range layerMetrics {
		if strings.HasSuffix(lm.name, "_ms") && !strings.HasPrefix(lm.name, "trace") {
			sum += out[lm.name]
		}
	}
	out["trace.unaccounted_ms"] = mean(m.latMs) - sum
	s.parseAndCanonicalize(out)

	if d := s.delta("requests"); d > 0 {
		out["serve.cache_hit_ratio"] = s.delta("cache_hits") / d
	}
	out["serve.checked"] = s.delta("checked")
	out["serve.witness_searches"] = s.delta("witness_searches")
	out["serve.rejected_input"] = s.delta("rejected_input")
	out["serve.shed"] = s.delta("shed")
	out["serve.deadlines"] = s.delta("deadline_exceeded")

	if err := writeServeTable(s.cfg, out, m); err != nil {
		return nil, err
	}
	return out, writeChrome(s.cfg, "serve-mix", traces)
}

// parseAndCanonicalize times, from outside the service, the two library
// calls its validate phase makes per program — litmus.Parse and
// memmodel.Canonicalize — by replaying them on the run's own requests
// (the first 20000). They are part of serve.validate_ms, not added to it.
func (s *serveBench) parseAndCanonicalize(out map[string]float64) {
	var parse, canon time.Duration
	n := 0
	for i := 0; i < len(s.recs) && n < 20000; i++ {
		if s.recs[i].err != nil {
			continue
		}
		n++
		p := s.plan(i)
		var req serve.CheckRequest
		if json.Unmarshal(p.body, &req) != nil {
			continue
		}
		t0 := time.Now()
		prog, err := litmus.Parse(req.Program)
		parse += time.Since(t0)
		if err != nil {
			continue
		}
		t1 := time.Now()
		memmodel.Canonicalize(prog)
		canon += time.Since(t1)
	}
	if n > 0 {
		out["litmus.parse_us"] = float64(parse) / 1e3 / float64(n)
		out["memmodel.canonicalize_us"] = float64(canon) / 1e3 / float64(n)
	}
}

func eachJSONLine(path string, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return sc.Err()
}

// writeServeTable writes serve-mix's per-layer table.
func writeServeTable(cfg config, out map[string]float64, m *measurement) error {
	path, err := artifact(cfg, "serve-mix.layers.txt")
	if err != nil {
		return err
	}
	var b strings.Builder
	opMean := mean(m.latMs)
	fmt.Fprintf(&b, "serve-mix: per-layer self time, mean per request over %d traced requests\n", len(m.latMs))
	fmt.Fprintf(&b, "%-34s %12s %8s\n", "layer", "ms/op", "share")
	for _, lm := range layerMetrics {
		if v := out[lm.name]; lm.unit == "ms" && v != 0 && !strings.HasPrefix(lm.name, "traced.") {
			fmt.Fprintf(&b, "%-34s %12.4f %7.1f%%\n", lm.name, v, 100*v/opMean)
		}
	}
	fmt.Fprintf(&b, "%-34s %12.4f\n", "op mean (client clock)", opMean)
	fmt.Fprintf(&b, "litmus.parse_us %.2f and memmodel.canonicalize_us %.2f are inside serve.validate_ms\n",
		out["litmus.parse_us"], out["memmodel.canonicalize_us"])
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
