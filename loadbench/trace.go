package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/schemacache"
)

// The traced run replays the seeded operation stream in-process, on one
// goroutine, through each layer's public entry point, recording a span
// around every call. The spans live in memory and are written out when
// the replay ends. The same operations then go through an untraced
// in-process server.Handler, whose per-operation time is compared with
// the traced root spans.

// span is one timed call. Parent is 0 for a root; every operation has
// one root span named "op" (its layer calls are children) and, where a
// layer is only reachable inside another call, a "probe" root holding
// that layer timed on its own.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. It is not safe for concurrent use: the replay
// is sequential. A nil tracer runs the calls untimed.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(op int, name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = int64(time.Since(t.origin))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("tracer: spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(op int, name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.start(op, name)
	f()
	t.end(id)
}

// spanStats is what a span name aggregates to: every call's duration
// and self time (duration minus the time its children cover).
type spanStats struct {
	dur, self latencies
}

func (t *tracer) stats() map[string]*spanStats {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start // children of one span never overlap
		}
	}
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.dur = append(st.dur, time.Duration(d))
		st.self = append(st.self, time.Duration(d-child[s.ID]))
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocs counts the heap allocations f makes. The replay is the only
// goroutine doing work while it runs, so the count is f's own.
func allocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// allocProbes is how many calls of each layer have their allocations
// counted (each probe re-runs the call outside any span).
const allocProbes = 32

// genParams mirrors the /v1/generate query parameters the workloads
// use.
type genParams struct {
	library, root, target string
	annotate              bool
}

func parseGenQuery(q string) genParams {
	v, _ := url.ParseQuery(q)
	p := genParams{library: v.Get("library"), root: v.Get("root"), target: v.Get("target"), annotate: v.Get("annotate") == "true"}
	if p.target == "" {
		p.target = "xsd"
	}
	return p
}

// fingerprint is the options part of the cache key, in ccserved's
// format, so the replayed key hashes as many bytes as the server's.
func (p genParams) fingerprint() string {
	return fmt.Sprintf("v1|lib=%s|root=%s|style=%d|annotate=%t|target=%s|%s",
		p.library, p.root, ccts.GlobalShared, p.annotate, p.target, (*ccts.GenProfile)(nil).Fingerprint())
}

// replayer runs the generate pipeline the way ccserved does, one span
// per layer call.
type replayer struct {
	t     *tracer
	cache *schemacache.Cache
	// allocation counts and imported bytes, per layer
	alloc       map[string][]float64
	importBytes int64
	importTime  time.Duration
}

func newReplayer(t *tracer, cacheBytes int64) *replayer {
	return &replayer{t: t, cache: schemacache.New(cacheBytes), alloc: map[string][]float64{}}
}

// generate is the cold path: import, resolve, validate, emit.
func (r *replayer) generate(op int, body []byte, p genParams) (*schemacache.Value, *ccts.Model, error) {
	var (
		m   *ccts.Model
		err error
	)
	start := time.Now()
	r.t.do(op, "xmi.import", func() { m, err = ccts.ImportXMIWithLimits(bytes.NewReader(body), ccts.DefaultImportLimits()) })
	if r.t != nil {
		r.importTime += time.Since(start)
		r.importBytes += int64(len(body))
	}
	if err != nil {
		return nil, nil, err
	}
	var ix *ccts.ModelIndex
	r.t.do(op, "core.resolve", func() { ix = ccts.ResolveModel(m) })
	var rep *ccts.ValidationReport
	r.t.do(op, "validate.model", func() { rep = ccts.ValidateModelIndexed(m, ix) })
	if rep.HasErrors() {
		return nil, nil, fmt.Errorf("model has validation errors")
	}
	lib := ix.FindLibrary(p.library)
	if lib == nil {
		return nil, nil, fmt.Errorf("model has no library %s", p.library)
	}
	var out *ccts.GenOutput
	opts := ccts.GenerateOptions{Annotate: p.annotate, Style: ccts.GlobalShared, Index: ix}
	r.t.do(op, "gen.emit."+p.target, func() {
		out, err = ccts.GenerateTargetDocumentContext(context.Background(), lib, p.root, p.target, opts)
	})
	if err != nil {
		return nil, nil, err
	}
	val := &schemacache.Value{RootElement: out.RootElement, ContentType: out.ContentType}
	for _, f := range out.Files {
		val.Files = append(val.Files, schemacache.File{Name: f.Name, Data: f.Data})
	}
	if val.Diagnostics, err = json.Marshal(rep.Findings); err != nil {
		return nil, nil, err
	}
	return val, m, nil
}

// serve is the cache-fronted path of one /v1/generate or publish: key,
// lookup, and the pipeline on a miss. It returns the value, whether it
// missed, and the imported model on a miss.
func (r *replayer) serve(op int, body []byte, p genParams) (*schemacache.Value, bool, *ccts.Model, error) {
	fp := p.fingerprint()
	var key string
	r.t.do(op, "contentaddr.key", func() { key = schemacache.Key(body, fp) })
	var (
		val     *schemacache.Value
		outcome schemacache.Outcome
		model   *ccts.Model
		err     error
	)
	r.t.do(op, "schemacache.lookup", func() {
		val, outcome, err = r.cache.Do(context.Background(), key, func() (*schemacache.Value, error) {
			v, m, err := r.generate(op, body, p)
			model = m
			return v, err
		})
	})
	if err != nil {
		return nil, false, nil, err
	}
	return val, outcome == schemacache.Miss, model, nil
}

// probe runs, after an operation's root span has closed, the calls
// that are not separate steps of the server's path: OCL evaluation
// (which ValidateModelIndexed runs inside) timed on its own under a
// "probe" root, and — for the first few operations — allocation counts.
func (r *replayer) probe(op int, body []byte, p genParams, miss bool, model *ccts.Model) {
	if r.t == nil {
		return
	}
	if miss {
		id := r.t.start(op, "probe")
		r.t.do(op, "ocl.constraints", func() { ccts.EvaluateConstraints(ccts.ToUML(model)) })
		r.t.end(id)
	}
	if len(r.alloc["contentaddr.key"]) < allocProbes {
		fp := p.fingerprint()
		r.alloc["contentaddr.key"] = append(r.alloc["contentaddr.key"], allocs(func() { schemacache.Key(body, fp) }))
	}
	if miss && len(r.alloc["xmi.import"]) < allocProbes {
		r.alloc["xmi.import"] = append(r.alloc["xmi.import"], allocs(func() {
			ccts.ImportXMIWithLimits(bytes.NewReader(body), ccts.DefaultImportLimits())
		}))
		ix := ccts.ResolveModel(model)
		r.alloc["validate.model"] = append(r.alloc["validate.model"], allocs(func() { ccts.ValidateModelIndexed(model, ix) }))
	}
}

// handler is an untraced in-process ccserved handler.
type handler struct{ h http.Handler }

// do serves one request and returns the response and the time
// ServeHTTP took.
func (h handler) do(method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.h.ServeHTTP(rec, req)
	return rec, time.Since(start)
}

// replayOut is what a workload's replay reports beyond its spans.
type replayOut struct {
	ops     int       // operations replayed, traced and untraced alike
	handler latencies // untraced server.Handler time per operation
	rep     *replayer
	extra   map[string]metric
}

// replayer-side settings.
const (
	// replayBudget bounds the traced replay; the untraced replay then
	// serves the same operations.
	replayBudget = 8 * time.Second
	// replayMaxOps caps it on fast workloads.
	replayMaxOps = 20000
)

// spanMetric maps a span name to a per-layer metric of its self time.
type spanMetric struct {
	metric, span, unit string
}

var spanMetrics = []spanMetric{
	{"contentaddr.key_us", "contentaddr.key", "us"},
	{"schemacache.lookup_us", "schemacache.lookup", "us"},
	{"xmi.import_ms", "xmi.import", "ms"},
	{"core.resolve_ms", "core.resolve", "ms"},
	{"validate.model_ms", "validate.model", "ms"},
	{"ocl.constraints_ms", "ocl.constraints", "ms"},
	{"diff.compat_ms", "diff.compat", "ms"},
	{"diff.compare_ms", "diff.compare", "ms"},
	{"repo.publish_ms", "repo.publish", "ms"},
	{"repo.read_ms", "repo.read", "ms"},
	{"repo.open_ms", "repo.open", "ms"},
	{"shard.route_us", "shard.route", "us"},
}

// callMetrics maps per-operation call counts to the spans they count.
var callMetrics = []struct {
	metric string
	spans  []string
}{
	{"contentaddr.calls_per_op", []string{"contentaddr.key"}},
	{"xmi.calls_per_op", []string{"xmi.import"}},
	{"core.calls_per_op", []string{"core.resolve"}},
	{"validate.calls_per_op", []string{"validate.model"}},
	{"ocl.calls_per_op", []string{"ocl.constraints"}},
	{"diff.calls_per_op", []string{"diff.compat"}},
	{"repo.publish_calls_per_op", []string{"repo.publish"}},
	{"repo.read_calls_per_op", []string{"repo.read"}},
	{"shard.calls_per_op", []string{"shard.route"}},
}

func inUnit(d time.Duration, unit string) float64 {
	if unit == "us" {
		return float64(d) / float64(time.Microsecond)
	}
	return ms(d)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// traceLayers runs the workload's traced replay and reports every
// per-layer metric, from the replay's spans and from the counters of
// the measured traffic in rec.
func traceLayers(cfg *config, b bench, runDir string, rec *e2e, res *result) error {
	t := newTracer()
	out, err := b.replay(t, runDir)
	if err != nil {
		return err
	}
	if out.ops == 0 {
		return fmt.Errorf("replayed no operation")
	}
	spanPath := filepath.Join(cfg.workdir, cfg.workload+".spans.jsonl")
	if err := t.write(spanPath); err != nil {
		return err
	}
	st := t.stats()
	ops := float64(out.ops)
	calls := func(names ...string) float64 {
		n := 0
		for _, s := range names {
			if st[s] != nil {
				n += len(st[s].self)
			}
		}
		return float64(n) / ops
	}
	selfMedian := func(span, unit string) float64 {
		if st[span] == nil {
			return 0
		}
		return inUnit(st[span].self.sorted().quantile(0.5), unit)
	}
	for _, m := range spanMetrics {
		res.set(m.metric, selfMedian(m.span, m.unit), m.unit)
	}
	var emitSpans []string
	for _, target := range ccts.Targets() {
		res.set("gen.emit_ms."+target, selfMedian("gen.emit."+target, "ms"), "ms")
		emitSpans = append(emitSpans, "gen.emit."+target)
	}
	for _, c := range callMetrics {
		res.set(c.metric, calls(c.spans...), "count")
	}
	res.set("gen.calls_per_op", calls(emitSpans...), "count")
	res.set("contentaddr.key_allocs", medianOf(out.rep.alloc["contentaddr.key"]), "count")
	res.set("xmi.import_allocs", medianOf(out.rep.alloc["xmi.import"]), "count")
	res.set("validate.allocs", medianOf(out.rep.alloc["validate.model"]), "count")
	mbps := 0.0
	if out.rep.importTime > 0 {
		mbps = float64(out.rep.importBytes) / (1 << 20) / out.rep.importTime.Seconds()
	}
	res.set("xmi.mb_per_s", mbps, "MB/s")

	// Root spans against the untraced handler on the same operations.
	var root latencies
	if st["op"] != nil {
		root = st["op"].dur.sorted()
	}
	handlerP50 := out.handler.sorted().quantile(0.5)
	res.set("server.handler_ms", ms(handlerP50), "ms")
	res.set("trace.root_ms", ms(root.quantile(0.5)), "ms")
	res.set("trace.unattributed_ms", ms(handlerP50-root.quantile(0.5)), "ms")
	res.set("trace.ops", ops, "count")

	// From the measured traffic.
	e2eP50 := rec.timed.lats(-1).sorted().quantile(0.5)
	res.set("server.wire_ms", ms(e2eP50-handlerP50), "ms")
	var rejected, hits, misses, coalesced, evictions, emitOps, bytesNow float64
	for i, d := range rec.deltas {
		rejected += d.sum("ccserved_saturated_total", "ccserved_shed_total", "ccserved_ratelimited_total")
		hits += d["schemacache_hits_total"]
		misses += d["schemacache_misses_total"]
		coalesced += d["schemacache_coalesced_total"]
		evictions += d["schemacache_evictions_total"]
		emitOps += d["gen_emit_ops_total"]
		bytesNow += rec.after[i]["schemacache_bytes"]
	}
	n := float64(len(rec.timed.samples))
	ratio := 0.0
	if lookups := hits + misses + coalesced; lookups > 0 {
		ratio = hits / lookups
	}
	res.set("server.rejected", rejected, "count")
	res.set("schemacache.hit_ratio", ratio, "ratio")
	res.set("schemacache.evictions_per_op", evictions/n, "count")
	res.set("schemacache.bytes", bytesNow, "bytes")
	res.set("gen.emit_ops_per_op", emitOps/n, "count")
	proxied, hop := 0.0, 0.0
	if len(rec.deltas) > 1 {
		proxied = rec.deltas[0]["shard_proxied_total"] / n
		local := rec.timed.lats(repoLabel(opReadZip, false)).sorted().quantile(0.5)
		remote := rec.timed.lats(repoLabel(opReadZip, true)).sorted().quantile(0.5)
		hop = ms(remote - local)
	}
	res.set("shard.proxied_ratio", proxied, "ratio")
	res.set("shard.hop_ms", hop, "ms")
	for k, v := range out.extra {
		res.metrics[k] = v
	}
	if _, ok := res.metrics["repo.dedup_ratio"]; !ok {
		res.set("repo.dedup_ratio", 0, "ratio")
	}

	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	res.note("traced replay: %d operations, %d spans written to %s", out.ops, len(t.spans), spanPath)
	for _, k := range names {
		m := res.metrics[k]
		res.note("  %-30s %12.4f %s", k, m.Value, m.Unit)
	}
	return nil
}
