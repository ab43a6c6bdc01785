package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/server"
	"github.com/go-ccts/ccts/internal/shard"
)

// repoSubjectCount is how many subjects repo-mix seeds. With one
// operation in ten a publish, each subject gains about one version per
// second of traffic on the benchmark host; as a version adds a single
// field, models grow slowly while the run lasts.
const repoSubjectCount = 160

// repoExtraVersions is how many further versions are rendered per
// subject for the timed phase: room for repoSubjectCount*repoExtraVersions
// publishes, about three times what a 30 s run makes on the benchmark
// host.
const repoExtraVersions = 96

// repoCacheBytes is the nodes' schema cache budget. Every publish is a
// new model, so the cache only fills; with the 64 MiB default its
// occupancy, and with it peak_rss_mb, would grow with the number of
// publishes a run manages. Seeding fills 4 MiB, so the timed phase runs
// at a steady cache size.
const repoCacheBytes = 4 << 20

// repoBench is repo-mix (one node) or shard-proxy (two shard primaries,
// traffic to the first): the same seeded operation stream either way.
type repoBench struct {
	cfg      *config
	sharded  bool
	subs     []*subject
	rotation []int
	golden   goldenCase
	chk      *checker
}

func prepareRepo(cfg *config, sharded bool) (bench, error) {
	golden, err := goldenCases(cfg.golden)
	if err != nil {
		return nil, err
	}
	subs, err := repoSubjects(cfg.seed, repoSubjectCount, repoExtraVersions)
	if err != nil {
		return nil, err
	}
	return &repoBench{
		cfg: cfg, sharded: sharded, subs: subs,
		rotation: permutation(cfg.seed, len(subs)),
		golden:   golden[0], // HoardingPermit, annotated XSD
		chk:      newChecker(),
	}, nil
}

// storedVersion is what the client knows of one published version: the
// publish response, and the archive once a read has been checked
// against it.
type storedVersion struct {
	meta    repo.Version
	mu      sync.Mutex
	archive []byte
}

// subjectState tracks one subject on one deployment.
type subjectState struct {
	pub      sync.Mutex // publishes to one subject go in version order
	next     int        // index of the next body to publish
	mu       sync.RWMutex
	versions []*storedVersion
}

func (s *subjectState) version(pick uint64) *storedVersion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versions[pick%uint64(len(s.versions))]
}

// Labels of repo operations: kind*2 + 1 when the subject is owned by the
// second shard (the request is proxied).
func repoLabel(kind repoOpKind, remote bool) int {
	l := int(kind) * 2
	if remote {
		l++
	}
	return l
}

type repoDeploy struct {
	b      *repoBench
	ns     []*node
	c      *client
	remote []bool // per subject: owned by shard b
	st     []*subjectState
	bufs   [connections]bytes.Buffer

	mu       sync.Mutex
	problems problems
	digests  digests
}

func (b *repoBench) setUp(dir string) (deployment, error) {
	nnodes := 1
	if b.sharded {
		nnodes = 2
	}
	ports, err := freePorts(nnodes)
	if err != nil {
		return nil, err
	}
	d := &repoDeploy{b: b, c: newClient(), digests: digests{}, remote: make([]bool, len(b.subs))}
	ids := []string{"a", "b"}[:nnodes]
	var m *shard.Map
	if b.sharded {
		shards := []shard.Shard{
			{ID: "a", Addr: fmt.Sprintf("http://127.0.0.1:%d", ports[0])},
			{ID: "b", Addr: fmt.Sprintf("http://127.0.0.1:%d", ports[1])},
		}
		if m, err = shard.NewMap(1, 0, shards, nil); err != nil {
			return nil, err
		}
		for i, s := range b.subs {
			d.remote[i] = m.Route(s.name).Owner.ID == "b"
		}
	}
	for i, id := range ids {
		args := []string{"-repo", filepath.Join(dir, id+"-repo"), "-cache-bytes", strconv.Itoa(repoCacheBytes)}
		if m != nil {
			mapPath := filepath.Join(dir, id+"-shardmap.json")
			if err := shard.SaveMap(mapPath, m); err != nil {
				return nil, err
			}
			args = append(args, "-shard-map", mapPath, "-shard-self", id, "-shard-proxy")
		}
		n, err := startNode(b.cfg.ccserved, dir, id, ports[i], args)
		if err != nil {
			d.close()
			return nil, err
		}
		d.ns = append(d.ns, n)
	}
	if err := d.seed(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *repoDeploy) nodes() []*node { return d.ns }
func (d *repoDeploy) dials() int64   { return d.c.dials.Load() }

func (d *repoDeploy) close() {
	d.c.close()
	for _, n := range d.ns {
		n.stop()
	}
}

func (d *repoDeploy) subjectURL(name string) string {
	return d.ns[0].base + "/v1/repo/subjects/" + url.PathEscape(name) + "/versions"
}

// publish posts body as the next version of a subject and records the
// committed version.
func (d *repoDeploy) publish(w int, name, query string, body []byte, st *subjectState) (reply, error) {
	rep, err := d.c.do(http.MethodPost, d.subjectURL(name)+"?"+query, body, &d.bufs[w])
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusCreated {
		return rep, fmt.Errorf("publish %s: status %d: %.300s", name, rep.status, rep.body)
	}
	if got := rep.header.Get("X-Ccserved-Cache"); got != "miss" {
		return rep, fmt.Errorf("publish %s: X-Ccserved-Cache %q, want miss", name, got)
	}
	var resp struct {
		Subject string       `json:"subject"`
		Version repo.Version `json:"version"`
	}
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return rep, fmt.Errorf("publish %s: response: %w", name, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if resp.Subject != name || resp.Version.Number != len(st.versions)+1 || len(resp.Version.Files) == 0 {
		return rep, fmt.Errorf("publish %s: committed %s version %d with %d files, want version %d",
			name, resp.Subject, resp.Version.Number, len(resp.Version.Files), len(st.versions)+1)
	}
	st.versions = append(st.versions, &storedVersion{meta: resp.Version})
	return rep, nil
}

// seed publishes every subject's seeded version chain, then publishes
// the HoardingPermit fixture and checks its stored archive against
// testdata/golden.
func (d *repoDeploy) seed() error {
	d.st = make([]*subjectState, len(d.b.subs))
	for i := range d.st {
		d.st[i] = &subjectState{}
	}
	p := runPhase(connections, 0, count(0, len(d.b.subs)), func(w, i int) outcome {
		s, st := d.b.subs[i], d.st[i]
		for k := 0; k < s.seeded; k++ {
			if _, err := d.publish(w, s.name, repoQuery, s.body(k), st); err != nil {
				return outcome{err: err}
			}
			st.next++
			v := st.versions[k]
			d.mu.Lock()
			d.digests[fmt.Sprintf("%s/%d", s.name, k+1)] = versionDigest(&v.meta)
			d.mu.Unlock()
		}
		return outcome{}
	})
	if f := p.failures(); f > 0 {
		return fmt.Errorf("%d of %d subjects failed to seed: %v", f, len(d.b.subs), p.errs)
	}

	g := &d.b.golden
	hp := &subjectState{}
	if _, err := d.publish(0, "hoardingpermit", g.query, g.body, hp); err != nil {
		return fmt.Errorf("golden %s: %w", g.name, err)
	}
	rep, err := d.c.do(http.MethodGet, d.subjectURL("hoardingpermit")+"/1", nil, &d.bufs[0])
	if err != nil {
		return fmt.Errorf("golden %s read: %w", g.name, err)
	}
	if rep.status != http.StatusOK {
		d.problems.add("golden %s read: status %d", g.name, rep.status)
		return nil
	}
	err = d.checkVersion(rep.body, hp.versions[0])
	if err == nil {
		var files []archiveFile
		if files, _, err = readArchive(rep.body); err == nil {
			err = matchGolden(files, g)
		}
	}
	if err != nil {
		d.problems.add("golden %s read: %v", g.name, err)
	}
	d.digests["golden/"+g.name] = sha256.Sum256(rep.body)
	return nil
}

// versionDigest condenses a version's content addresses.
func versionDigest(v *repo.Version) [32]byte {
	h := sha256.New()
	for _, f := range v.Files {
		fmt.Fprintf(h, "%s %s\n", f.Name, f.SHA256)
	}
	fmt.Fprintf(h, "diagnostics %s\n", v.DiagnosticsSHA256)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// checkVersion checks a read archive against the publish that created
// the version: the same files in the same order with the same content
// addresses, the same diagnostics, and well-formed schemas. A checked
// archive is kept; later reads of the version must equal it byte for
// byte.
func (d *repoDeploy) checkVersion(body []byte, v *storedVersion) error {
	v.mu.Lock()
	archive := v.archive
	v.mu.Unlock()
	if archive != nil {
		if !bytes.Equal(body, archive) {
			return fmt.Errorf("version %d archive differs from an earlier read", v.meta.Number)
		}
		return nil
	}
	files, diag, err := readArchive(body)
	if err != nil {
		return err
	}
	if len(files) != len(v.meta.Files) {
		return fmt.Errorf("version %d: read %d files, published %d", v.meta.Number, len(files), len(v.meta.Files))
	}
	for i, f := range files {
		ref := v.meta.Files[i]
		if f.name != ref.Name || sha256hex(f.data) != ref.SHA256 {
			return fmt.Errorf("version %d: file %d is %s, published %s with another content address", v.meta.Number, i, f.name, ref.Name)
		}
	}
	if sha256hex(diag) != v.meta.DiagnosticsSHA256 {
		return fmt.Errorf("version %d: diagnostics differ from the publish", v.meta.Number)
	}
	if err := d.b.chk.structure(files, diag); err != nil {
		return err
	}
	v.mu.Lock()
	v.archive = bytes.Clone(body)
	v.mu.Unlock()
	return nil
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (d *repoDeploy) op(w, i int) outcome {
	op := repoOpAt(d.b.cfg.seed, d.b.rotation, len(d.b.subs), i)
	s, st := d.b.subs[op.subject], d.st[op.subject]
	o := outcome{label: repoLabel(op.kind, d.remote[op.subject])}
	switch op.kind {
	case opPublish:
		st.pub.Lock()
		defer st.pub.Unlock()
		if st.next >= s.versions() {
			o.err = fmt.Errorf("%s: all %d rendered versions published; raise repoExtraVersions", s.name, s.versions())
			return o
		}
		rep, err := d.publish(w, s.name, repoQuery, s.body(st.next), st)
		o.lat, o.err = rep.lat, err
		if err == nil {
			st.next++
		}
	case opReadZip:
		v := st.version(op.pick)
		rep, err := d.c.do(http.MethodGet, d.subjectURL(s.name)+"/"+strconv.Itoa(v.meta.Number), nil, &d.bufs[w])
		o.lat, o.err = rep.lat, err
		if err == nil && rep.status != http.StatusOK {
			o.err = fmt.Errorf("read %s/%d: status %d", s.name, v.meta.Number, rep.status)
		} else if err == nil {
			o.err = d.checkVersion(rep.body, v)
		}
	case opReadFile:
		v := st.version(op.pick)
		f := v.meta.Files[(op.pick>>8)%uint64(len(v.meta.Files))]
		u := d.subjectURL(s.name) + "/" + strconv.Itoa(v.meta.Number) + "?file=" + url.QueryEscape(f.Name)
		rep, err := d.c.do(http.MethodGet, u, nil, &d.bufs[w])
		o.lat, o.err = rep.lat, err
		if err == nil && rep.status != http.StatusOK {
			o.err = fmt.Errorf("read %s/%d %s: status %d", s.name, v.meta.Number, f.Name, rep.status)
		} else if err == nil && sha256hex(rep.body) != f.SHA256 {
			o.err = fmt.Errorf("read %s/%d %s: content differs from the publish", s.name, v.meta.Number, f.Name)
		}
	}
	return o
}

// verify matches the nodes' counters over the timed phase against the
// operations sent: one request per operation at the entry node, one
// publish (and one cache miss) per publish operation, and — sharded —
// exactly the operations the map routes to b proxied there.
func (d *repoDeploy) verify(deltas []metricSet, p phase) []string {
	var publishes, remotePublishes, remote float64
	for _, s := range p.samples {
		if s.label/2 == int(opPublish) {
			publishes++
			if s.label%2 == 1 {
				remotePublishes++
			}
		}
		if s.label%2 == 1 {
			remote++
		}
	}
	n := float64(len(p.samples))
	var out problems
	a := deltas[0]
	out.expect("ccserved_requests_total", a["ccserved_requests_total"], n+1) // +1: the closing scrape
	var pubs, misses, hits, rejected, errs float64
	for _, m := range deltas {
		pubs += m["repo_publishes_total"]
		misses += m["schemacache_misses_total"]
		hits += m["schemacache_hits_total"] + m["schemacache_coalesced_total"]
		rejected += m.sum("ccserved_saturated_total", "ccserved_shed_total", "ccserved_ratelimited_total", "repo_publish_rejected_total")
		errs += m.sum("ccserved_errors_4xx_total", "ccserved_errors_5xx_total")
	}
	out.expect("repo_publishes_total", pubs, publishes)
	out.expect("schemacache_misses_total", misses, publishes)
	out.expect("schemacache hits", hits, 0)
	out.expect("rejections", rejected, 0)
	out.expect("error responses", errs, 0)
	if d.b.sharded {
		b := deltas[1]
		out.expect("shard_proxied_total (a)", a["shard_proxied_total"], remote)
		out.expect("shard_proxied_total (b)", b["shard_proxied_total"], 0)
		out.expect("ccserved_requests_total (b)", b["ccserved_requests_total"], remote+1)
		out.expect("repo_publishes_total (b)", b["repo_publishes_total"], remotePublishes)
	}
	return out
}

func (d *repoDeploy) outputs() digests        { return d.digests }
func (d *repoDeploy) setupProblems() problems { return d.problems }

// replayState is a subject's versions in one replay.
type replayState struct {
	next     int
	versions []repo.Version
}

// replay is the traced in-process form of the workload: a scratch
// repository on the same filesystem, seeded like the node, then the
// timed-phase operations one by one — each under a root span with the
// shard route (shard-proxy), content key, cache lookup, pipeline and
// repository calls the server makes — then the same operations through
// an untraced server.Handler over a second scratch repository. The
// proxy hop itself is only measured over TCP (shard.hop_ms).
func (b *repoBench) replay(t *tracer, dir string) (*replayOut, error) {
	repoDir := filepath.Join(dir, "replay-repo")
	rp, err := repo.Open(repoDir, repo.Config{})
	if err != nil {
		return nil, err
	}
	defer func() {
		if rp != nil {
			rp.Close()
		}
	}()
	var m *shard.Map
	if b.sharded {
		if m, err = shard.NewMap(1, 0, []shard.Shard{{ID: "a", Addr: "http://a.invalid"}, {ID: "b", Addr: "http://b.invalid"}}, nil); err != nil {
			return nil, err
		}
	}
	p := parseGenQuery(repoQuery)
	r := newReplayer(t, repoCacheBytes)
	st := make([]*replayState, len(b.subs))
	// publish runs one publish the way the server does; with tr set it
	// first times the compatibility gate in a probe, then the publish
	// under a root span.
	publish := func(op int, tr *tracer, s *subject, rs *replayState) error {
		body := s.body(rs.next)
		rr := &replayer{cache: r.cache, alloc: r.alloc}
		root := 0
		if tr != nil {
			// The gate runs inside Publish; time a dry run of it (and the
			// bare model comparison) before the root span opens.
			prev, err := ccts.ImportXMIWithLimits(bytes.NewReader(s.body(rs.next-1)), ccts.DefaultImportLimits())
			if err != nil {
				return err
			}
			model, err := ccts.ImportXMIWithLimits(bytes.NewReader(body), ccts.DefaultImportLimits())
			if err != nil {
				return err
			}
			id := tr.start(op, "probe")
			var res *repo.CompatResult
			tr.do(op, "diff.compat", func() { res, err = rp.Check(s.name, body, model) })
			tr.do(op, "diff.compare", func() { ccts.CompareModels(prev, model) })
			tr.end(id)
			if err != nil {
				return err
			}
			if !res.Compatible {
				return fmt.Errorf("%s version %d is not backward compatible", s.name, rs.next+1)
			}
			rr = r
			root = tr.start(op, "op")
			if m != nil {
				tr.do(op, "shard.route", func() { m.Route(s.name) })
			}
		}
		val, miss, gm, err := rr.serve(op, body, p)
		if err != nil {
			return err
		}
		if !miss {
			return fmt.Errorf("%s version %d: publish hit the cache", s.name, rs.next+1)
		}
		req := repo.PublishRequest{Subject: s.name, Input: body, Fingerprint: p.fingerprint(),
			RootElement: val.RootElement, Diagnostics: val.Diagnostics, Model: gm}
		for _, f := range val.Files {
			req.Files = append(req.Files, repo.File{Name: f.Name, Data: f.Data})
		}
		var v *repo.Version
		tr.do(op, "repo.publish", func() { v, err = rp.Publish(req) })
		if err != nil {
			return err
		}
		rs.versions = append(rs.versions, *v)
		rs.next++
		if tr != nil {
			tr.end(root)
			rr.probe(op, body, p, miss, gm)
		}
		return nil
	}
	for i, s := range b.subs {
		st[i] = &replayState{}
		for k := 0; k < s.seeded; k++ {
			if err := publish(0, nil, s, st[i]); err != nil {
				return nil, err
			}
		}
	}

	out := &replayOut{rep: r, extra: map[string]metric{}}
	end := time.Now().Add(replayBudget)
	for i := 0; i < replayMaxOps && time.Now().Before(end); i++ {
		op := repoOpAt(b.cfg.seed, b.rotation, len(b.subs), i)
		s, rs := b.subs[op.subject], st[op.subject]
		if op.kind == opPublish && rs.next >= s.versions() {
			break
		}
		if op.kind == opPublish {
			if err := publish(i, t, s, rs); err != nil {
				return nil, err
			}
			out.ops++
			continue
		}
		root := t.start(i, "op")
		if m != nil {
			t.do(i, "shard.route", func() { m.Route(s.name) })
		}
		v := rs.versions[op.pick%uint64(len(rs.versions))]
		var err error
		t.do(i, "repo.read", func() { err = readVersion(rp, s.name, v, op) })
		t.end(root)
		if err != nil {
			return nil, err
		}
		out.ops++
	}
	out.extra["repo.dedup_ratio"] = metric{rp.Stats().DedupRatio(), "ratio"}
	if err := rp.Close(); err != nil {
		return nil, err
	}
	rp = nil
	for k := 0; k < 5; k++ {
		var reopened *repo.Repo
		t.do(-1, "repo.open", func() { reopened, err = repo.Open(repoDir, repo.Config{}) })
		if err != nil {
			return nil, err
		}
		reopened.Close()
	}

	handlerLat, err := b.replayHandler(filepath.Join(dir, "replay-handler-repo"), out.ops)
	if err != nil {
		return nil, err
	}
	out.handler = handlerLat
	return out, nil
}

// readVersion is what a repo read costs the repository layer: the
// version record plus every blob of its archive, or the one file.
func readVersion(rp *repo.Repo, subject string, v repo.Version, op repoOp) error {
	got, err := rp.Version(subject, v.Number)
	if err != nil {
		return err
	}
	if op.kind == opReadFile {
		f := got.Files[(op.pick>>8)%uint64(len(got.Files))]
		_, err = rp.VersionFile(subject, got.Number, f.Name)
		return err
	}
	for _, f := range got.Files {
		if _, err := rp.Blob(f.SHA256); err != nil {
			return err
		}
	}
	_, err = rp.Blob(got.DiagnosticsSHA256)
	return err
}

// replayHandler serves the first n timed-phase operations through an
// untraced in-process server.Handler over a fresh repository seeded the
// same way, and returns the time each ServeHTTP took.
func (b *repoBench) replayHandler(dir string, n int) (latencies, error) {
	rp, err := repo.Open(dir, repo.Config{})
	if err != nil {
		return nil, err
	}
	defer rp.Close()
	h := handler{server.New(server.Config{Repo: rp, CacheBytes: repoCacheBytes}).Handler()}
	st := make([]*replayState, len(b.subs))
	publish := func(s *subject, rs *replayState) (time.Duration, error) {
		rec, d := h.do(http.MethodPost, "/v1/repo/subjects/"+url.PathEscape(s.name)+"/versions?"+repoQuery, s.body(rs.next))
		if rec.Code != http.StatusCreated {
			return 0, fmt.Errorf("handler publish %s: status %d: %.200s", s.name, rec.Code, rec.Body.String())
		}
		var resp struct {
			Version repo.Version `json:"version"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return 0, err
		}
		rs.versions = append(rs.versions, resp.Version)
		rs.next++
		return d, nil
	}
	for i, s := range b.subs {
		st[i] = &replayState{}
		for k := 0; k < s.seeded; k++ {
			if _, err := publish(s, st[i]); err != nil {
				return nil, err
			}
		}
	}
	var out latencies
	for i := 0; len(out) < n; i++ {
		op := repoOpAt(b.cfg.seed, b.rotation, len(b.subs), i)
		s, rs := b.subs[op.subject], st[op.subject]
		if op.kind == opPublish {
			d, err := publish(s, rs)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
			continue
		}
		v := rs.versions[op.pick%uint64(len(rs.versions))]
		target := "/v1/repo/subjects/" + url.PathEscape(s.name) + "/versions/" + strconv.Itoa(v.Number)
		if op.kind == opReadFile {
			f := v.Files[(op.pick>>8)%uint64(len(v.Files))]
			target += "?file=" + url.QueryEscape(f.Name)
		}
		rec, d := h.do(http.MethodGet, target, nil)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler read %s: status %d", target, rec.Code)
		}
		out = append(out, d)
	}
	return out, nil
}
