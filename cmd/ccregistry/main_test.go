package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ccts "github.com/go-ccts/ccts"
	"github.com/go-ccts/ccts/internal/fixture"
)

func sampleXMI(t *testing.T, dir string) string {
	t.Helper()
	f, err := fixture.BuildHoardingPermit()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model.xmi")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if err := ccts.ExportXMI(f.Model, file); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistryWorkflow(t *testing.T) {
	dir := t.TempDir()
	model := sampleXMI(t, dir)
	store := filepath.Join(dir, "reg.json")

	var buf bytes.Buffer
	if err := run([]string{"-store", store, "register", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "registered 44 new entries") {
		t.Errorf("register output = %q", buf.String())
	}
	if _, err := os.Stat(store); err != nil {
		t.Fatal("store not written")
	}

	// Search against the persisted store.
	buf.Reset()
	if err := run([]string{"-store", store, "search", "permit"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hoarding Permit. Details") {
		t.Errorf("search output = %q", buf.String())
	}

	// CSV export + import into a second store.
	csvPath := filepath.Join(dir, "harm.csv")
	if err := run([]string{"-store", store, "export-csv", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	store2 := filepath.Join(dir, "reg2.json")
	buf.Reset()
	if err := run([]string{"-store", store2, "import-csv", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "44 entries after import") {
		t.Errorf("import output = %q", buf.String())
	}
	// Re-registering is idempotent.
	buf.Reset()
	if err := run([]string{"-store", store, "register", model}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "registered 0 new entries (44 total)") {
		t.Errorf("re-register output = %q", buf.String())
	}
}

// TestRegistrySaveRoundTrip saves twice over the same store (create,
// then replace) and reloads it: every entry survives and the atomic
// write leaves no temp file beside the store.
func TestRegistrySaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model := sampleXMI(t, dir)
	store := filepath.Join(dir, "reg.json")
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := run([]string{"-store", store, "register", model}, &buf); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}

	f, err := os.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := ccts.NewRegistry()
	if err := reg.LoadJSON(f); err != nil {
		t.Fatalf("reloading saved store: %v", err)
	}
	if reg.Len() != 44 {
		t.Errorf("reloaded %d entries, want 44", reg.Len())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("save left temp file %s", e.Name())
		}
	}
}

func TestRegistryCLIErrors(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cases := [][]string{
		{},
		{"-store", filepath.Join(dir, "r.json"), "bogus"},
		{"-store", filepath.Join(dir, "r.json"), "register"},
		{"-store", filepath.Join(dir, "r.json"), "register", "/nope.xmi"},
		{"-store", filepath.Join(dir, "r.json"), "search"},
		{"-store", filepath.Join(dir, "r.json"), "export-csv"},
		{"-store", filepath.Join(dir, "r.json"), "import-csv", "/nope.csv"},
	}
	for i, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v) should fail", i, args)
		}
	}
	// Corrupt store file.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-store", bad, "search", "x"}, &buf); err == nil {
		t.Error("corrupt store should fail")
	}
}

func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "--help"} {
		t.Run(arg, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{arg}, &buf); !errors.Is(err, flag.ErrHelp) {
				t.Errorf("run(%q) = %v, want flag.ErrHelp (treated as success)", arg, err)
			}
		})
	}
}
