package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

func TestShapesDeterministicAndBalanced(t *testing.T) {
	a := shapes(newRand(7, streamShapes), 49, 5, 30)
	b := shapes(newRand(7, streamShapes), 49, 5, 30)
	c := shapes(newRand(8, streamShapes), 49, 5, 30)
	if len(a) != 49 {
		t.Fatalf("%d shapes, want 49", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shape %d differs for the same seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i].ABIEs < 5 || a[i].ABIEs > 30 || a[i].BBIEsPerABIE < 2 || a[i].BBIEsPerABIE > 6 {
			t.Errorf("shape %d out of range: %+v", i, a[i])
		}
	}
	if same {
		t.Error("seeds 7 and 8 yield the same shapes")
	}
	// Every seed has the same multiset of field counts and chained
	// shapes: the cost mix does not depend on the seed.
	for _, s := range [][]int{tally(a), tally(c)} {
		if s[0] != 24 && s[0] != 25 {
			t.Errorf("%d chained shapes of 49, want half", s[0])
		}
	}
	if ta, tc := tally(a), tally(c); ta[0] != tc[0] || ta[2] != tc[2] {
		t.Errorf("field/chain multiset depends on the seed: %v vs %v", ta, tc)
	}
}

// tally returns the number of chained shapes, the total ABIE count and
// the total field count.
func tally(specs []fixture.SyntheticSpec) []int {
	out := make([]int, 3)
	for _, s := range specs {
		if s.Chain {
			out[0]++
		}
		out[1] += s.ABIEs
		out[2] += s.BBIEsPerABIE
	}
	return out
}

func TestTemplateBodyMatchesDirectRender(t *testing.T) {
	spec := shapes(newRand(3, streamShapes), 4, 5, 12)[1]
	tmpl, err := newTemplate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderSynthetic(spec, 0, "1.42", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.body("1.42"); !bytes.Equal(got, want) {
		t.Error("template stamped with a version differs from rendering the model at that version")
	}
	if len(tmpl.parts) < 3 {
		t.Errorf("version placeholder occurs %d times, want one per synthetic library", len(tmpl.parts)-1)
	}
}

func TestGenMissInputsDistinct(t *testing.T) {
	tmpls, err := missTemplateSet(5)
	if err != nil {
		t.Fatal(err)
	}
	order := permutation(5, len(tmpls))
	seen := map[[32]byte]int{}
	// Two full rotations of every (shape, target) pairing, in both the
	// fill and the timed phase.
	n := 2 * len(tmpls) * len(ccts.Targets())
	for _, phase := range []string{"0", "1"} {
		for i := 0; i < n; i++ {
			op := missOpAt(order, phase, i)
			key := sha256.Sum256(append(tmpls[op.tmpl].body(op.version), op.target...))
			if j, dup := seen[key]; dup {
				t.Fatalf("phase %s op %d repeats input %d", phase, i, j)
			}
			seen[key] = i
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	render := func(seed uint64) [32]byte {
		h := sha256.New()
		set, err := hitWorkingSet(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range set {
			h.Write([]byte(e.name + e.query))
			h.Write(e.body)
		}
		for _, i := range permutation(seed, len(set)) {
			h.Write([]byte{byte(i)})
		}
		subs, err := repoSubjects(seed, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			h.Write([]byte(s.name))
			for k := 0; k < s.versions(); k++ {
				h.Write(s.body(k))
			}
		}
		var out [32]byte
		copy(out[:], h.Sum(nil))
		return out
	}
	if render(9) != render(9) {
		t.Error("the same seed rendered different inputs")
	}
	if render(9) == render(10) {
		t.Error("different seeds rendered the same inputs")
	}
}

func TestRepoSubjectsGrowByOptionalFields(t *testing.T) {
	subs, err := repoSubjects(4, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, s := range subs {
		counts[s.seeded]++
		if s.versions() != s.seeded+2 {
			t.Errorf("%s: %d versions, want %d", s.name, s.versions(), s.seeded+2)
		}
		for k := 1; k < s.versions(); k++ {
			if len(s.body(k)) <= len(s.body(k-1)) {
				t.Errorf("%s: version %d is not larger than version %d", s.name, k+1, k)
			}
		}
	}
	if counts[1] != 3 || counts[2] != 3 || counts[3] != 3 {
		t.Errorf("seeded chain lengths %v, want a third each of 1, 2 and 3", counts)
	}

	// Each version adds exactly one optional field, to the aggregates
	// in turn.
	spec := fixture.SyntheticSpec{ABIEs: 3, BBIEsPerABIE: 2}
	m, _, err := fixture.BuildSynthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := addFields(m, spec, 4); err != nil {
		t.Fatal(err)
	}
	bie := m.FindLibrary("SynBIE")
	for i, want := range []int{4, 3, 3} {
		abie := bie.FindABIE(fmt.Sprintf("Syn_Agg%04d", i))
		if abie == nil {
			t.Fatalf("no ABIE Syn_Agg%04d", i)
		}
		if len(abie.BBIEs) != want {
			t.Errorf("Syn_Agg%04d has %d fields, want %d", i, len(abie.BBIEs), want)
		}
		for _, f := range abie.BBIEs[2:] {
			if f.Card.Lower != 0 {
				t.Errorf("added field %s of Syn_Agg%04d is not optional", f.Name, i)
			}
		}
	}
}

func TestRepoOpStream(t *testing.T) {
	rot := permutation(2, 10)
	kinds := map[repoOpKind]int{}
	for i := 0; i < 1000; i++ {
		a, b := repoOpAt(2, rot, 10, i), repoOpAt(2, rot, 10, i)
		if a != b {
			t.Fatalf("op %d not deterministic", i)
		}
		kinds[a.kind]++
		if a.subject < 0 || a.subject >= 10 {
			t.Fatalf("op %d subject %d out of range", i, a.subject)
		}
	}
	if kinds[opPublish] != 100 {
		t.Errorf("%d publishes in 1000 ops, want 100", kinds[opPublish])
	}
	if kinds[opReadZip] < 350 || kinds[opReadFile] < 350 {
		t.Errorf("read mix %v, want about half zip and half file", kinds)
	}
}
