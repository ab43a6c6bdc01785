package durable_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/faultio"
)

// assertNoTemp fails if any WriteFile temp file survives under dir.
func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	for _, data := range []string{"first", "second"} {
		if err := durable.WriteFile(path, []byte(data), nil); err != nil {
			t.Fatalf("WriteFile(%s): %v", data, err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Fatalf("content %q, want %q", got, data)
		}
	}

	// A write killed mid-stream leaves the old file whole and no temp
	// file behind, and names the file in its error.
	err := durable.WriteFile(path, []byte("third, torn"), func(w io.Writer) io.Writer {
		return &faultio.Writer{W: w, Limit: 3}
	})
	if !errors.Is(err, faultio.ErrInjected) || !strings.Contains(err.Error(), path) {
		t.Fatalf("faulted write: %v, want the injected fault naming %s", err, path)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("faulted write changed the file to %q", got)
	}
	assertNoTemp(t, dir)
}

func TestSweepTemp(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "blobs", "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, "m.json.tmp1"), filepath.Join(sub, "ab12.tmp9"), filepath.Join(dir, "keep.json")} {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := durable.SweepTemp(dir); err != nil {
		t.Fatal(err)
	}
	assertNoTemp(t, dir)
	if _, err := os.Stat(filepath.Join(dir, "keep.json")); err != nil {
		t.Errorf("sweep removed a live file: %v", err)
	}
}

func TestBlobs(t *testing.T) {
	dir := t.TempDir()
	b, err := durable.OpenBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("<xsd:schema/>")
	sha, created, err := b.Put(data)
	if err != nil || !created {
		t.Fatalf("Put: %s %v %v", sha, created, err)
	}
	if _, created, _ := b.Put(data); created {
		t.Error("second Put of the same content created a blob")
	}
	path := filepath.Join(dir, durable.BlobDir, sha[:2], sha)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("blob not at blobs/<2hex>/<sha256>: %v", err)
	}
	if got, err := b.Get(sha); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %q %v", got, err)
	}
	if !b.Has(sha) {
		t.Error("Has = false for a resident blob")
	}

	var walked []string
	if err := b.Walk(func(s string, size int64) error {
		if size != int64(len(data)) {
			t.Errorf("Walk size %d, want %d", size, len(data))
		}
		walked = append(walked, s)
		return nil
	}); err != nil || len(walked) != 1 || walked[0] != sha {
		t.Fatalf("Walk: %v %v", walked, err)
	}

	// Reads verify the bytes against the address.
	if err := os.WriteFile(path, []byte("<xsd:schema/ >"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(sha); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("corrupt blob: %v, want ErrCorrupt", err)
	}

	// Malformed addresses never reach the file system.
	for _, bad := range []string{"", "zz", strings.Repeat("../", 21) + "x", strings.ToUpper(sha)} {
		if _, err := b.Get(bad); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Get(%q): %v, want not-exist", bad, err)
		}
		if b.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}

	if err := b.Remove(sha); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(sha); err != nil {
		t.Errorf("removing an absent blob: %v", err)
	}
	if _, err := b.Get(sha); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get after Remove: %v, want not-exist", err)
	}
}

// rec is a minimal framed record for log tests.
type rec struct {
	Seq int64  `json:"seq"`
	Op  string `json:"op"`
}

func decodeRec(line []byte) (rec, int64, bool) {
	var r rec
	if !durable.DecodeFrame(line, &r) || r.Seq <= 0 || r.Op == "" {
		return rec{}, 0, false
	}
	return r, r.Seq, true
}

func frame(t *testing.T, seq int64) []byte {
	t.Helper()
	line, err := durable.EncodeFrame(rec{Seq: seq, Op: "put"})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func frames(t *testing.T, seqs ...int64) []byte {
	var out []byte
	for _, s := range seqs {
		out = append(out, frame(t, s)...)
	}
	return out
}

func openLog(t *testing.T, path string, ckp int64) (*durable.Log, []durable.Entry[rec]) {
	t.Helper()
	l, replay, err := durable.OpenLog(path, ckp, decodeRec)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, replay
}

// failSync passes writes through and fails the fsync after them.
type failSync struct{ io.Writer }

func (failSync) Sync() error { return faultio.ErrInjected }

func TestLogAppendRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openLog(t, path, 0)
	if err := l.Append(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	for _, fault := range []func(io.Writer) io.Writer{
		func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: 0} },
		func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: 7} },
		func(w io.Writer) io.Writer { return failSync{w} },
	} {
		l.Wrap = fault
		if err := l.Append(frame(t, 2)); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("faulted append: %v", err)
		}
		if l.Seq() != 1 || l.Broken() {
			t.Fatalf("after a faulted append: seq %d broken %v", l.Seq(), l.Broken())
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, frames(t, 1)) {
			t.Fatalf("faulted append left %q in the log", got)
		}
	}
	l.Wrap = nil
	if err := l.Append(frame(t, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, replay := openLog(t, path, 0)
	if len(replay) != 2 || replay[1].Seq != 2 || !bytes.Equal(replay[1].Line, frame(t, 2)) {
		t.Fatalf("reopen replayed %+v", replay)
	}
}

func TestLogOpenRules(t *testing.T) {
	cases := []struct {
		name    string
		log     []byte
		ckp     int64
		replay  []int64
		keepLen int
	}{
		{"empty", nil, 0, nil, 0},
		{"all replayed", frames(t, 1, 2, 3), 0, []int64{1, 2, 3}, len(frames(t, 1, 2, 3))},
		{"absorbed prefix skipped", frames(t, 1, 2, 3), 2, []int64{3}, len(frames(t, 1, 2, 3))},
		{"all absorbed emptied", frames(t, 1, 2), 2, nil, 0},
		{"gap after checkpoint discards", frames(t, 5, 6), 2, nil, 0},
		{"torn tail truncated", append(frames(t, 1, 2), frame(t, 3)[:9]...), 0, []int64{1, 2}, len(frames(t, 1, 2))},
		{"seq break ends prefix", frames(t, 1, 2, 4), 0, []int64{1, 2}, len(frames(t, 1, 2))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.wal")
			if c.log != nil {
				if err := os.WriteFile(path, c.log, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, replay := openLog(t, path, c.ckp)
			var got []int64
			for _, e := range replay {
				got = append(got, e.Seq)
			}
			if len(got) != len(c.replay) {
				t.Fatalf("replay %v, want %v", got, c.replay)
			}
			for i := range got {
				if got[i] != c.replay[i] {
					t.Fatalf("replay %v, want %v", got, c.replay)
				}
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(c.keepLen) {
				t.Fatalf("log left at %v bytes (%v), want %d", fi.Size(), err, c.keepLen)
			}
			// Appends continue the sequence on a frame boundary.
			if err := l.Append(frame(t, l.Seq()+1)); err != nil {
				t.Fatal(err)
			}
			data, _ := os.ReadFile(path)
			if _, goodLen := durable.Scan(data, decodeRec); goodLen != len(data) {
				t.Fatalf("log after append rescans to %d of %d bytes", goodLen, len(data))
			}
		})
	}
}

func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := openLog(t, path, 0)
	for s := int64(1); s <= 2; s++ {
		if err := l.Append(frame(t, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(10); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 || l.Seq() != 10 {
		t.Fatalf("after Reset: %d bytes, seq %d", fi.Size(), l.Seq())
	}
	if err := l.Append(frame(t, 11)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, replay := openLog(t, path, 10); len(replay) != 1 || replay[0].Seq != 11 {
		t.Fatalf("reopen after Reset replayed %+v", replay)
	}
}
