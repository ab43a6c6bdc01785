package main

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	ccts "github.com/go-ccts/ccts"
)

// archiveFile is one entry of a ccserved schema archive.
type archiveFile struct {
	name string
	data []byte
}

// readArchive opens a schema archive as ccserved writes it: the schema
// files in generation order, then diagnostics.json last. Entry CRCs are
// verified while reading.
func readArchive(body []byte) (files []archiveFile, diagnostics []byte, err error) {
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, nil, fmt.Errorf("archive does not open: %w", err)
	}
	seen := map[string]bool{}
	for i, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, nil, fmt.Errorf("archive entry %s: %w", f.Name, err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("archive entry %s: %w", f.Name, err)
		}
		if seen[f.Name] {
			return nil, nil, fmt.Errorf("archive holds %s twice", f.Name)
		}
		seen[f.Name] = true
		if f.Name == "diagnostics.json" {
			if i != len(zr.File)-1 {
				return nil, nil, fmt.Errorf("diagnostics.json is not the last entry")
			}
			diagnostics = data
			continue
		}
		files = append(files, archiveFile{name: f.Name, data: data})
	}
	if diagnostics == nil {
		return nil, nil, fmt.Errorf("archive has no diagnostics.json")
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("archive has no schema files")
	}
	return files, diagnostics, nil
}

// checker validates the structure of served schema sets. Structural
// verdicts are memoized by content digest: identical files (the shared
// core data type schema, say) are parsed once per run.
type checker struct {
	mu sync.Mutex
	ok map[[32]byte]bool
}

func newChecker() *checker { return &checker{ok: map[[32]byte]bool{}} }

// structure checks a served schema set: diagnostics.json is a JSON
// object with a findings list, each .xsd parses as an XML Schema, each
// .json is valid JSON, and no file is empty.
func (c *checker) structure(files []archiveFile, diagnostics []byte) error {
	var diag struct {
		Findings *[]json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(diagnostics, &diag); err != nil || diag.Findings == nil {
		return fmt.Errorf("diagnostics.json is not a findings report")
	}
	for _, f := range files {
		if len(f.data) == 0 {
			return fmt.Errorf("%s is empty", f.name)
		}
		ext := fileExt(f.name)
		if ext != ".xsd" && ext != ".json" {
			continue
		}
		sum := sha256.Sum256(f.data)
		c.mu.Lock()
		known := c.ok[sum]
		c.mu.Unlock()
		if known {
			continue
		}
		switch ext {
		case ".xsd":
			if _, err := ccts.ParseSchema(bytes.NewReader(f.data)); err != nil {
				return fmt.Errorf("%s does not parse as XML Schema: %w", f.name, err)
			}
		case ".json":
			if !json.Valid(f.data) {
				return fmt.Errorf("%s is not valid JSON", f.name)
			}
		}
		c.mu.Lock()
		c.ok[sum] = true
		c.mu.Unlock()
	}
	return nil
}

// matchGolden requires the served files to be exactly the reference
// files of a paper fixture, byte for byte.
func matchGolden(files []archiveFile, g *goldenCase) error {
	if len(files) != len(g.files) {
		return fmt.Errorf("%s: served %d files, reference has %d (%v)", g.name, len(files), len(g.files), sortedNames(g.files))
	}
	for _, f := range files {
		want, ok := g.files[f.name]
		if !ok {
			return fmt.Errorf("%s: served %s, which has no reference", g.name, f.name)
		}
		if !bytes.Equal(f.data, want) {
			return fmt.Errorf("%s: %s differs from testdata/golden", g.name, f.name)
		}
	}
	return nil
}

// problems collects failed checks for the report.
type problems []string

func (p *problems) add(format string, args ...any) { *p = append(*p, fmt.Sprintf(format, args...)) }

// expect records a problem when a counter delta differs from the
// number of operations that should have moved it.
func (p *problems) expect(name string, got, want float64) {
	if got != want {
		p.add("%s moved by %v over the timed phase, want %v", name, got, want)
	}
}

// digests maps a deterministic output (a set-up response) to the
// SHA-256 of its bytes.
type digests map[string][32]byte

// compare reports outputs that differ between two set-ups of the same
// run; it returns how many outputs both set-ups produced.
func (a digests) compare(b digests, out *problems) int {
	common := 0
	for k, v := range a {
		if w, ok := b[k]; ok {
			common++
			if v != w {
				out.add("output %s differs between two set-ups of the same inputs", k)
			}
		}
	}
	return common
}

// fingerprint is one digest over every output, for comparing runs of
// the same seed.
func (a digests) fingerprint() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		v := a[k]
		h.Write([]byte(k))
		h.Write(v[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
