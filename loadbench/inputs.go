package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/core"
	"github.com/go-ccts/ccts/internal/fixture"
)

// Every input the server sees is rendered here from the workload seed,
// before any set-up clock starts. The same seed always yields the same
// bytes; the server is never told the seed.

// newRand returns the generator for one purpose (stream) of one seed.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// mix is splitmix64 over (seed, i): per-operation randomness that does
// not depend on which worker runs the operation or when.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Streams of newRand, one per purpose, so adding a draw to one purpose
// never shifts another's inputs.
const (
	streamShapes = iota + 1
	streamOrder
	streamSubjects
)

// targetExt is the file extension each backend gives the requested
// library's schema.
var targetExt = map[string]string{
	"xsd": ".xsd", "jsonschema": ".json", "proto": ".proto",
	"rng": ".rng", "rdfs": ".rdf", "go": ".go",
}

// shapes returns n synthetic model shapes spread over [lo, hi] ABIEs.
// Shape i has about lo+(hi-lo)*i/(n-1) ABIEs, 2+i%5 fields per ABIE,
// and is chained when i is odd. The seed jitters each size by one and,
// within each adjacent pair, may swap the field counts and which of
// the two is chained: every seed renders different models with nearly
// the same cost mix, so a result can be re-checked on an unseen seed.
func shapes(r *rand.Rand, n, lo, hi int) []fixture.SyntheticSpec {
	out := make([]fixture.SyntheticSpec, n)
	for i := range out {
		abies := lo
		if n > 1 {
			abies = lo + (hi-lo)*i/(n-1)
		}
		abies = min(hi, max(lo, abies+r.IntN(3)-1))
		out[i] = fixture.SyntheticSpec{ABIEs: abies, BBIEsPerABIE: 2 + i%5, Chain: i%2 == 1}
	}
	for i := 0; i+1 < n; i += 2 {
		a, b := &out[i], &out[i+1]
		if r.IntN(2) == 1 {
			a.BBIEsPerABIE, b.BBIEsPerABIE = b.BBIEsPerABIE, a.BBIEsPerABIE
		}
		if r.IntN(2) == 1 {
			a.Chain, b.Chain = b.Chain, a.Chain
		}
	}
	return out
}

// placeholder stands for the per-request library version in a rendered
// template; it never occurs in a model otherwise.
const placeholder = "9.9.9-stamp"

// template is a rendered synthetic model whose library versions are
// left open: body(v) is the model's XMI with every synthetic library at
// version v, assembled by concatenating pre-rendered pieces.
type template struct {
	spec  fixture.SyntheticSpec
	parts [][]byte
	size  int
}

func (t *template) body(version string) []byte {
	b := make([]byte, 0, t.size+len(version)*(len(t.parts)-1))
	for i, p := range t.parts {
		if i > 0 {
			b = append(b, version...)
		}
		b = append(b, p...)
	}
	return b
}

// renderSynthetic builds a synthetic model, adds extra optional fields
// to it (see addFields), sets its three synthetic libraries to version
// and (when tag is non-empty) gives them tag-specific namespaces, and
// exports it as XMI.
func renderSynthetic(spec fixture.SyntheticSpec, extra int, version, tag string) ([]byte, error) {
	m, _, err := fixture.BuildSynthetic(spec)
	if err != nil {
		return nil, err
	}
	if err := addFields(m, spec, extra); err != nil {
		return nil, err
	}
	for _, name := range []string{"SynCC", "SynBIE", "SynDoc"} {
		lib := m.FindLibrary(name)
		if lib == nil {
			return nil, fmt.Errorf("synthetic model has no library %s", name)
		}
		lib.Version = version
		if tag != "" {
			lib.BaseURN += ":" + tag
		}
	}
	var buf bytes.Buffer
	if err := ccts.ExportXMI(m, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// addFields gives a synthetic model n further optional fields, one
// aggregate at a time from the first: the BCC on the aggregate's ACC
// and the BBIE on its ABIE. Version k of a repo subject is its spec
// with k such fields, so each version adds one optional field to the
// one before it, a backward-compatible change.
func addFields(m *core.Model, spec fixture.SyntheticSpec, n int) error {
	cc, bie := m.FindLibrary("SynCC"), m.FindLibrary("SynBIE")
	if n > 0 && (cc == nil || bie == nil) {
		return fmt.Errorf("synthetic model has no SynCC or SynBIE library")
	}
	for k := 0; k < n; k++ {
		agg := fmt.Sprintf("Agg%04d", k%spec.ABIEs)
		acc, abie := cc.FindACC(agg), bie.FindABIE(core.QualifiedName("Syn", agg))
		if acc == nil || abie == nil || acc.FindBCC("Field000") == nil {
			return fmt.Errorf("synthetic model has no aggregate %s", agg)
		}
		name := fmt.Sprintf("Field%03d", spec.BBIEsPerABIE+k/spec.ABIEs)
		bcc, err := acc.AddBCC(name, acc.FindBCC("Field000").Type, core.Cardinality{Lower: 0, Upper: 1})
		if err != nil {
			return err
		}
		if _, err := abie.AddBBIE(name, bcc, nil, bcc.Card); err != nil {
			return err
		}
	}
	return nil
}

func newTemplate(spec fixture.SyntheticSpec) (*template, error) {
	x, err := renderSynthetic(spec, 0, placeholder, "")
	if err != nil {
		return nil, err
	}
	parts := bytes.Split(x, []byte(placeholder))
	if len(parts) < 2 {
		return nil, fmt.Errorf("rendered model carries no version placeholder")
	}
	return &template{spec: spec, parts: parts, size: len(x) - (len(parts)-1)*len(placeholder)}, nil
}

// synQuery is the /v1/generate query for a synthetic model's document.
func synQuery(target string) string {
	return url.Values{"library": {"SynDoc"}, "root": {"Document"}, "target": {target}}.Encode()
}

// goldenCase is a paper fixture with hand-checked reference output in
// testdata/golden: the archive served for body/query must hold exactly
// files, byte for byte, plus diagnostics.json.
type goldenCase struct {
	name   string
	body   []byte
	query  string
	target string
	files  map[string][]byte
}

// goldenCases renders the HoardingPermit model (annotated XSD set) and
// the PurchaseOrder EU order (xsd, jsonschema, proto) and loads their
// references from dir.
func goldenCases(dir string) ([]goldenCase, error) {
	hp, err := fixture.BuildHoardingPermit()
	if err != nil {
		return nil, err
	}
	po, err := fixture.BuildPurchaseOrder()
	if err != nil {
		return nil, err
	}
	var hpXMI, poXMI bytes.Buffer
	if err := ccts.ExportXMI(hp.Model, &hpXMI); err != nil {
		return nil, err
	}
	if err := ccts.ExportXMI(po.Model, &poXMI); err != nil {
		return nil, err
	}
	hpFiles, err := loadGolden(filepath.Join(dir, "*.xsd"))
	if err != nil {
		return nil, err
	}
	cases := []goldenCase{{
		name:   "hoardingpermit/xsd",
		body:   hpXMI.Bytes(),
		query:  url.Values{"library": {"EB005-HoardingPermit"}, "root": {"HoardingPermit"}, "annotate": {"true"}}.Encode(),
		target: "xsd",
		files:  hpFiles,
	}}
	for _, target := range []string{"xsd", "jsonschema", "proto"} {
		files, err := loadGolden(filepath.Join(dir, "purchaseorder", target, "*"))
		if err != nil {
			return nil, err
		}
		cases = append(cases, goldenCase{
			name:   "purchaseorder/" + target,
			body:   poXMI.Bytes(),
			query:  url.Values{"library": {"EUOrder"}, "root": {"EU_Order"}, "target": {target}}.Encode(),
			target: target,
			files:  files,
		})
	}
	return cases, nil
}

func loadGolden(pattern string) (map[string][]byte, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden files match %s", pattern)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(p)] = data
	}
	return out, nil
}

// genEntry is one distinct /v1/generate request of the gen-hit working
// set.
type genEntry struct {
	name   string
	body   []byte
	query  string
	target string
	golden *goldenCase // non-nil for the paper fixtures
}

// hitShapes is how many synthetic shapes the gen-hit working set
// crosses with the six targets; with the four paper fixtures that makes
// 100 entries whose schema sets total a few MiB, well under the 64 MiB
// cache budget, so nothing is evicted.
const hitShapes = 16

// hitWorkingSet renders the gen-hit working set: the golden fixtures
// plus every target of synthetic models of 5–30 ABIEs.
func hitWorkingSet(seed uint64, golden []goldenCase) ([]genEntry, error) {
	var set []genEntry
	for i := range golden {
		g := &golden[i]
		set = append(set, genEntry{name: g.name, body: g.body, query: g.query, target: g.target, golden: g})
	}
	for i, spec := range shapes(newRand(seed, streamShapes), hitShapes, 5, 30) {
		for _, target := range ccts.Targets() {
			k := len(set)
			body, err := renderSynthetic(spec, 0, fmt.Sprintf("1.%d", k), "")
			if err != nil {
				return nil, err
			}
			set = append(set, genEntry{
				name:   fmt.Sprintf("syn%02d/%s", i, target),
				body:   body,
				query:  synQuery(target),
				target: target,
			})
		}
	}
	return set, nil
}

// missTemplates is the number of distinct synthetic shapes gen-miss
// cycles through; it is coprime with the six targets, so every
// (shape, target) pairing recurs evenly.
const missTemplates = 49

// missTemplateSet renders the gen-miss shapes.
func missTemplateSet(seed uint64) ([]*template, error) {
	var out []*template
	for _, spec := range shapes(newRand(seed, streamShapes), missTemplates, 5, 30) {
		t, err := newTemplate(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// missOp describes gen-miss operation i of a phase: a shape, a target,
// and a library version unique to the operation, so every request is a
// model that differs in substance (file names and namespaces change).
type missOp struct {
	tmpl    int
	target  string
	version string
}

func missOpAt(order []int, phase string, i int) missOp {
	targets := ccts.Targets()
	return missOp{
		tmpl:    order[i%len(order)],
		target:  targets[i%len(targets)],
		version: fmt.Sprintf("%s.%d", phase, i),
	}
}

// permutation is a seeded permutation of 0..n-1.
func permutation(seed uint64, n int) []int {
	return newRand(seed, streamOrder).Perm(n)
}

// subject is one repository subject of repo-mix / shard-proxy: a small
// synthetic model with its own namespaces whose version k+1 adds one
// optional field to version k (see addFields).
type subject struct {
	name   string
	spec   fixture.SyntheticSpec
	seeded int // versions published during set-up
	// packed[k] is the XMI of version k+1, deflated: a run renders
	// several thousand versions, which kept whole would take hundreds
	// of MiB.
	packed [][]byte
}

// versions is how many versions of the subject are rendered.
func (s *subject) versions() int { return len(s.packed) }

// body returns the XMI of version k+1.
func (s *subject) body(k int) []byte {
	b, err := io.ReadAll(flate.NewReader(bytes.NewReader(s.packed[k])))
	if err != nil {
		panic(fmt.Sprintf("inflating a body this process deflated: %v", err)) // a bug, not input
	}
	return b
}

// repoSubjects renders n subjects with 1–3 seeded versions each (a
// third of the subjects each) and
// extra further versions for the timed phase.
func repoSubjects(seed uint64, n, extra int) ([]*subject, error) {
	r := newRand(seed, streamSubjects)
	specs := shapes(r, n, 3, 8)
	seeded := make([]int, n)
	for i := range seeded {
		seeded[i] = 1 + i%3
	}
	r.Shuffle(n, func(i, j int) { seeded[i], seeded[j] = seeded[j], seeded[i] })
	subs := make([]*subject, n)
	for i := range subs {
		spec := specs[i]
		spec.BBIEsPerABIE = 2 + spec.BBIEsPerABIE%3
		subs[i] = &subject{name: fmt.Sprintf("subj-%03d", i), spec: spec, seeded: seeded[i]}
	}
	// Rendering is the costliest part of start-up; split it over two
	// goroutines (the benchmark host has two CPUs).
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			var buf bytes.Buffer
			zw, _ := flate.NewWriter(&buf, flate.BestSpeed) // a valid level: no error
			for i := w; i < n; i += 2 {
				s := subs[i]
				for k := 0; k < s.seeded+extra; k++ {
					body, err := renderSynthetic(s.spec, k, "1.0", s.name)
					if err != nil {
						errs <- err
						return
					}
					buf.Reset()
					zw.Reset(&buf)
					zw.Write(body) // writes to a bytes.Buffer do not fail
					zw.Close()
					s.packed = append(s.packed, bytes.Clone(buf.Bytes()))
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	return subs, nil
}

// repoQuery is the publish query for a synthetic subject.
var repoQuery = url.Values{"library": {"SynDoc"}, "root": {"Document"}}.Encode()

// repoOpKind classifies a repo-mix operation.
type repoOpKind int

const (
	opPublish repoOpKind = iota
	opReadZip
	opReadFile
)

// publishEvery makes one operation in this many a publish.
const publishEvery = 10

// repoOp is operation i of a repo-mix stream: one in publishEvery is a
// publish of the next version of a subject (subjects in a seeded
// rotation); the rest read a stored version, as a zip or as one file.
// pick is the per-operation randomness that chooses which stored
// version and file a read fetches among those existing when it runs.
type repoOp struct {
	kind    repoOpKind
	subject int
	pick    uint64
}

func repoOpAt(seed uint64, rotation []int, nsub, i int) repoOp {
	h := mix(seed, uint64(i))
	if i%publishEvery == publishEvery-1 {
		return repoOp{kind: opPublish, subject: rotation[(i/publishEvery)%len(rotation)]}
	}
	kind := opReadZip
	if h&1 == 1 {
		kind = opReadFile
	}
	return repoOp{kind: kind, subject: int((h >> 1) % uint64(nsub)), pick: h >> 32}
}

// sortedNames lists a file map's names in order.
func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fileExt returns a file name's extension including the dot.
func fileExt(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i:]
	}
	return ""
}
