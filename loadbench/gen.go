package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/server"
)

// genBench is gen-hit or gen-miss: one ccserved node taking POST
// /v1/generate.
type genBench struct {
	cfg    *config
	miss   bool
	golden []goldenCase
	chk    *checker

	// gen-hit: the working set, cycled in a seeded order.
	set   []genEntry
	order []int
	// gen-miss: the shapes, cycled in a seeded order.
	tmpls []*template
}

// cacheBytes is the node's schema cache budget. gen-hit keeps the
// ccserved default (64 MiB; its working set needs a few MiB). gen-miss
// uses 8 MiB: set-up fills the budget so the timed phase runs at the
// steady-state heap with an eviction on every insert, and filling the
// default 64 MiB with distinct models takes about 20 s per set-up on
// the two-CPU benchmark host.
func (b *genBench) cacheBytes() int64 {
	if b.miss {
		return 8 << 20
	}
	return 64 << 20
}

func prepareGen(cfg *config, miss bool) (bench, error) {
	golden, err := goldenCases(cfg.golden)
	if err != nil {
		return nil, err
	}
	b := &genBench{cfg: cfg, miss: miss, golden: golden, chk: newChecker()}
	if miss {
		if b.tmpls, err = missTemplateSet(cfg.seed); err != nil {
			return nil, err
		}
		b.order = permutation(cfg.seed, len(b.tmpls))
		return b, nil
	}
	if b.set, err = hitWorkingSet(cfg.seed, golden); err != nil {
		return nil, err
	}
	b.order = permutation(cfg.seed, len(b.set))
	return b, nil
}

// fillRecorded is how many of the first fill requests are digested:
// fewer than the smallest possible fill (the budget over the largest
// archive).
const fillRecorded = 64

// genDeploy is one set-up of a gen workload.
type genDeploy struct {
	b    *genBench
	n    *node
	c    *client
	bufs [connections]bytes.Buffer

	problems problems
	digests  digests
	// gen-hit: the archive each working-set entry was served at set-up.
	expect [][]byte
	// gen-miss: schema bytes served while filling the cache.
	filled atomic.Int64
}

func (b *genBench) setUp(dir string) (deployment, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	args := []string{"-cache-bytes", strconv.FormatInt(b.cacheBytes(), 10)}
	n, err := startNode(b.cfg.ccserved, dir, "a", ports[0], args)
	if err != nil {
		return nil, err
	}
	d := &genDeploy{b: b, n: n, c: newClient(), digests: digests{}}
	if b.miss {
		err = d.fill()
	} else {
		err = d.warm()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *genDeploy) nodes() []*node { return []*node{d.n} }
func (d *genDeploy) dials() int64   { return d.c.dials.Load() }

func (d *genDeploy) close() {
	d.c.close()
	d.n.stop()
}

// post sends one /v1/generate request and checks the status and the
// cache outcome.
func (d *genDeploy) post(w int, query string, body []byte, outcome string) (reply, error) {
	rep, err := d.c.do(http.MethodPost, d.n.base+"/v1/generate?"+query, body, &d.bufs[w])
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusOK {
		return rep, fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	if got := rep.header.Get("X-Ccserved-Cache"); got != outcome {
		return rep, fmt.Errorf("X-Ccserved-Cache %q, want %q", got, outcome)
	}
	return rep, nil
}

// warm serves every working-set entry once (each a miss), checks the
// paper fixtures against testdata/golden and every other archive for
// structure, and keeps the archives the timed phase must reproduce.
func (d *genDeploy) warm() error {
	set := d.b.set
	d.expect = make([][]byte, len(set))
	var mu sync.Mutex
	p := runPhase(connections, 0, count(0, len(set)), func(w, i int) outcome {
		e := &set[i]
		rep, err := d.post(w, e.query, e.body, "miss")
		if err == nil {
			err = d.checkArchive(rep.body, e.target, "", e.golden)
		}
		if err != nil {
			return outcome{err: fmt.Errorf("%s: %w", e.name, err)}
		}
		archive := bytes.Clone(rep.body)
		mu.Lock()
		d.expect[i] = archive
		d.digests["warm/"+e.name] = sha256.Sum256(archive)
		mu.Unlock()
		return outcome{lat: rep.lat}
	})
	for _, err := range p.errs {
		d.problems.add("set-up: %v", err)
	}
	if f := p.failures(); f > 0 {
		return fmt.Errorf("%d of %d working-set entries failed at set-up: %v", f, len(set), p.errs)
	}
	return nil
}

// fill checks the paper fixtures against testdata/golden, then serves
// distinct models until the schemas served exceed the cache budget by a
// tenth, so the cache is full and evicting when the clock starts.
func (d *genDeploy) fill() error {
	for _, g := range d.b.golden {
		rep, err := d.post(0, g.query, g.body, "miss")
		if err == nil {
			err = d.checkArchive(rep.body, g.target, "", &g)
		}
		if err != nil {
			return fmt.Errorf("golden %s: %w", g.name, err)
		}
		d.digests["golden/"+g.name] = sha256.Sum256(rep.body)
	}
	target := d.b.cacheBytes() * 11 / 10
	var mu sync.Mutex
	p := runPhase(connections, 0, func(int) bool { return d.filled.Load() >= target }, func(w, i int) outcome {
		o, sum, size := d.missOp(w, "0", i)
		if o.err == nil {
			d.filled.Add(size)
		}
		// How far the fill runs depends on timing; its first requests
		// always run, so only they enter the run's output record.
		if o.err == nil && i < fillRecorded {
			mu.Lock()
			d.digests["fill/"+strconv.Itoa(i)] = sum
			mu.Unlock()
		}
		return o
	})
	for _, err := range p.errs {
		d.problems.add("set-up: %v", err)
	}
	if f := p.failures(); f > 0 {
		return fmt.Errorf("%d of %d fill requests failed: %v", f, len(p.samples), p.errs)
	}
	return nil
}

// checkArchive opens a served archive and checks it: against the
// reference files for a paper fixture, for structure otherwise, and —
// when version is set — that the requested library's schema carries
// that version in its file name.
func (d *genDeploy) checkArchive(body []byte, target, version string, g *goldenCase) error {
	files, diag, err := readArchive(body)
	if err != nil {
		return err
	}
	if g != nil {
		if err := matchGolden(files, g); err != nil {
			return err
		}
	}
	if version != "" {
		if want := "SynDoc_" + version + targetExt[target]; files[0].name != want {
			return fmt.Errorf("first file %s, want %s", files[0].name, want)
		}
	}
	return d.b.chk.structure(files, diag)
}

// missOp runs gen-miss operation i of a phase ("0" fills the cache at
// set-up, "1" is the timed phase) and returns the archive digest and
// the bytes of schema files served.
func (d *genDeploy) missOp(w int, phase string, i int) (outcome, [32]byte, int64) {
	op := missOpAt(d.b.order, phase, i)
	t := d.b.tmpls[op.tmpl]
	rep, err := d.post(w, synQuery(op.target), t.body(op.version), "miss")
	if err != nil {
		return outcome{err: err}, [32]byte{}, 0
	}
	if err := d.checkArchive(rep.body, op.target, op.version, nil); err != nil {
		return outcome{lat: rep.lat, err: err}, [32]byte{}, 0
	}
	return outcome{lat: rep.lat}, sha256.Sum256(rep.body), int64(len(rep.body))
}

func (d *genDeploy) op(w, i int) outcome {
	if d.b.miss {
		o, _, _ := d.missOp(w, "1", i)
		return o
	}
	e := d.b.order[i%len(d.b.order)]
	rep, err := d.post(w, d.b.set[e].query, d.b.set[e].body, "hit")
	if err != nil {
		return outcome{lat: rep.lat, err: err}
	}
	if !bytes.Equal(rep.body, d.expect[e]) {
		return outcome{lat: rep.lat, err: fmt.Errorf("%s: archive differs from the one served at set-up", d.b.set[e].name)}
	}
	return outcome{lat: rep.lat}
}

// targetOf returns the target timed-phase operation i requested.
func (d *genDeploy) targetOf(i int) string {
	if d.b.miss {
		return missOpAt(d.b.order, "1", i).target
	}
	return d.b.set[d.b.order[i%len(d.b.order)]].target
}

// verify matches the node's counters over the timed phase against the
// operations sent: every request a hit (gen-hit) or a miss (gen-miss),
// per target, with no rejection and, on gen-hit, no generation at all.
func (d *genDeploy) verify(deltas []metricSet, p phase) []string {
	m := deltas[0]
	n := float64(len(p.samples))
	var out problems
	out.expect("ccserved_requests_total", m["ccserved_requests_total"], n+1) // +1: the closing scrape
	out.expect("rejections", m.sum("ccserved_saturated_total", "ccserved_shed_total", "ccserved_ratelimited_total"), 0)
	out.expect("ccserved_errors_4xx_total", m["ccserved_errors_4xx_total"], 0)
	out.expect("ccserved_errors_5xx_total", m["ccserved_errors_5xx_total"], 0)
	out.expect("schemacache_coalesced_total", m["schemacache_coalesced_total"], 0)
	perTarget := map[string]float64{}
	for _, s := range p.samples {
		perTarget[d.targetOf(s.index)]++
	}
	want, other := "hit", "miss"
	if d.b.miss {
		want, other = "miss", "hit"
		out.expect("schemacache_misses_total", m["schemacache_misses_total"], n)
		out.expect("schemacache_hits_total", m["schemacache_hits_total"], 0)
		if m["schemacache_evictions_total"] <= 0 {
			out.add("schemacache_evictions_total did not move: the cache was not at its budget")
		}
		if m["gen_emit_ops_total"] <= 0 {
			out.add("gen_emit_ops_total did not move on gen-miss")
		}
	} else {
		out.expect("schemacache_hits_total", m["schemacache_hits_total"], n)
		out.expect("schemacache_misses_total", m["schemacache_misses_total"], 0)
		out.expect("schemacache_evictions_total", m["schemacache_evictions_total"], 0)
		out.expect("gen_emit_ops_total", m["gen_emit_ops_total"], 0)
	}
	for _, t := range ccts.Targets() {
		out.expect("gen_"+t+"_requests_total", m["gen_"+t+"_requests_total"], perTarget[t])
		out.expect("gen_"+t+"_cache_"+want+"_total", m["gen_"+t+"_cache_"+want+"_total"], perTarget[t])
		out.expect("gen_"+t+"_cache_"+other+"_total", m["gen_"+t+"_cache_"+other+"_total"], 0)
	}
	return out
}

func (d *genDeploy) outputs() digests        { return d.digests }
func (d *genDeploy) setupProblems() problems { return d.problems }

// replay is the traced in-process form of the workload: an in-process
// cache brought to the state set-up leaves the node in (warm, or full),
// then the timed-phase operations one by one, each under a root span;
// then the same operations through an untraced server.Handler set up
// the same way.
func (b *genBench) replay(t *tracer, dir string) (*replayOut, error) {
	r := newReplayer(t, b.cacheBytes())
	h := handler{server.New(server.Config{CacheBytes: b.cacheBytes()}).Handler()}
	// Set-up, untraced, on both.
	setup := newReplayer(nil, 0)
	setup.cache = r.cache
	if b.miss {
		for i := 0; setup.cache.Stats().Evictions == 0; i++ {
			op := missOpAt(b.order, "0", i)
			body := b.tmpls[op.tmpl].body(op.version)
			if _, _, _, err := setup.serve(0, body, genParams{library: "SynDoc", root: "Document", target: op.target}); err != nil {
				return nil, err
			}
			if rec, _ := h.do(http.MethodPost, "/v1/generate?"+synQuery(op.target), body); rec.Code != http.StatusOK {
				return nil, fmt.Errorf("handler set-up: status %d", rec.Code)
			}
		}
	} else {
		for _, e := range b.set {
			if _, _, _, err := setup.serve(0, e.body, parseGenQuery(e.query)); err != nil {
				return nil, err
			}
			if rec, _ := h.do(http.MethodPost, "/v1/generate?"+e.query, e.body); rec.Code != http.StatusOK {
				return nil, fmt.Errorf("handler set-up: status %d", rec.Code)
			}
		}
	}
	input := func(i int) (string, []byte) {
		if b.miss {
			op := missOpAt(b.order, "1", i)
			return synQuery(op.target), b.tmpls[op.tmpl].body(op.version)
		}
		e := &b.set[b.order[i%len(b.order)]]
		return e.query, e.body
	}
	out := &replayOut{rep: r}
	end := time.Now().Add(replayBudget)
	for i := 0; i < replayMaxOps && time.Now().Before(end); i++ {
		q, body := input(i)
		p := parseGenQuery(q)
		root := t.start(i, "op")
		_, miss, model, err := r.serve(i, body, p)
		t.end(root)
		if err != nil {
			return nil, err
		}
		if miss != b.miss {
			return nil, fmt.Errorf("replayed op %d: cache miss=%t on %s", i, miss, b.cfg.workload)
		}
		r.probe(i, body, p, miss, model)
		out.ops++
	}
	for i := 0; i < out.ops; i++ {
		q, body := input(i)
		rec, d := h.do(http.MethodPost, "/v1/generate?"+q, body)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler op %d: status %d", i, rec.Code)
		}
		out.handler = append(out.handler, d)
	}
	return out, nil
}
