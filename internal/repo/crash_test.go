package repo

// Crash-recovery harness: every durability seam (WAL append, manifest
// checkpoint, blob write) is killed mid-stream through the
// Config.Fault* seams,
// and torn WAL tails are produced byte-by-byte, to prove the guarantee
// the package documents — a publish that returned success survives any
// crash, a publish that failed leaves no trace, and recovery never
// leaves temp files behind.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/faultio"
	"github.com/go-ccts/ccts/internal/fixture"
)

// assertNoTempFiles fails if any *.tmp* residue exists under dir.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// copyTree clones a repository directory so a truncation sweep can
// destroy each copy independently.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// faultSeam is a switchable hook for a Config.Fault* field: while wrap
// is nil writes pass through, otherwise wrap interposes on them.
type faultSeam struct{ wrap func(io.Writer) io.Writer }

func (f *faultSeam) hook(w io.Writer) io.Writer {
	if f.wrap == nil {
		return w
	}
	return f.wrap(w)
}

// abandon simulates a crash: the WAL handle is closed without a
// checkpoint and the Repo is never used again.
func abandon(r *Repo) {
	r.mu.Lock()
	r.closed = true
	r.wal.Close()
	r.mu.Unlock()
}

func TestWALAppendFaultRollsBack(t *testing.T) {
	dir := t.TempDir()
	var walFault faultSeam
	r := openRepo(t, dir, Config{DefaultPolicy: PolicyNone, FaultWAL: walFault.hook})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)

	// Kill the append at several offsets, including a short write that
	// lands part of the record before failing.
	for _, limit := range []int64{0, 1, 40} {
		walFault.wrap = func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: limit} }
		_, err := r.Publish(req)
		walFault.wrap = nil
		if err == nil {
			t.Fatalf("limit %d: publish succeeded through a failing WAL", limit)
		}
		if errors.Is(err, ErrWAL) {
			t.Fatalf("limit %d: rollback failed, WAL poisoned", limit)
		}
	}

	// The failed appends were rolled back: state did not advance and the
	// WAL accepts the next publish at the right number.
	if vs, _ := r.Versions(testSubject); len(vs) != 1 {
		t.Fatalf("%d versions after failed appends, want 1", len(vs))
	}
	if v := mustPublish(t, r, req); v.Number != 2 {
		t.Errorf("number = %d, want 2 after rollback", v.Number)
	}

	// Reopen: only the two successful publishes exist.
	abandon(r)
	r2 := openRepo(t, dir, Config{})
	if vs, _ := r2.Versions(testSubject); len(vs) != 2 {
		t.Errorf("%d versions after reopen, want 2", len(vs))
	}
	assertNoTempFiles(t, dir)
}

// TestTornWALTailSweep truncates the log after every record boundary
// and at points inside each record; recovery must serve exactly the
// versions whose record survived intact and stay writable.
func TestTornWALTailSweep(t *testing.T) {
	seed := t.TempDir()
	r := openRepo(t, seed, Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	for i := 0; i < 3; i++ {
		mustPublish(t, r, req)
	}
	abandon(r)

	wal, err := os.ReadFile(filepath.Join(seed, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries are the newline offsets.
	var bounds []int
	for i, b := range wal {
		if b == '\n' {
			bounds = append(bounds, i+1)
		}
	}
	if len(bounds) != 3 {
		t.Fatalf("expected 3 WAL records, found %d", len(bounds))
	}

	type cut struct {
		name string
		at   int
		want int // surviving versions
	}
	cuts := []cut{
		{"empty", 0, 0},
		{"mid-first-record", bounds[0] / 2, 0},
		{"after-first", bounds[0], 1},
		{"torn-second", bounds[1] - 1, 1},
		{"after-second", bounds[1], 2},
		{"torn-third", bounds[2] - 1, 2},
		{"intact", bounds[2], 3},
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			dir := copyTree(t, seed)
			if err := os.Truncate(filepath.Join(dir, walName), int64(c.at)); err != nil {
				t.Fatal(err)
			}
			r2 := openRepo(t, dir, Config{DefaultPolicy: PolicyNone})
			var got int
			if vs, err := r2.Versions(testSubject); err == nil {
				got = len(vs)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("cut at %d: %d versions, want %d", c.at, got, c.want)
			}
			// The torn tail was truncated away on a record boundary: the
			// repository accepts a new publish and numbers it correctly.
			v := mustPublish(t, r2, req)
			if v.Number != c.want+1 {
				t.Errorf("post-recovery number = %d, want %d", v.Number, c.want+1)
			}
			// Surviving versions serve their files byte-identically.
			for n := 1; n <= c.want; n++ {
				for _, f := range req.Files {
					data, err := r2.VersionFile(testSubject, n, f.Name)
					if err != nil {
						t.Fatalf("VersionFile(%d, %s): %v", n, f.Name, err)
					}
					if !bytes.Equal(data, f.Data) {
						t.Errorf("version %d file %s differs after recovery", n, f.Name)
					}
				}
			}
			assertNoTempFiles(t, dir)
		})
	}
}

func TestCorruptWALRecordDropsTail(t *testing.T) {
	seed := t.TempDir()
	r := openRepo(t, seed, Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	mustPublish(t, r, req)
	abandon(r)

	// Flip one byte inside the first record's payload: its CRC fails,
	// and the intact second record behind it must NOT be served (it
	// would be a gap in the sequence).
	path := filepath.Join(seed, walName)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal[20] ^= 0xff
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := openRepo(t, seed, Config{DefaultPolicy: PolicyNone})
	if _, err := r2.Versions(testSubject); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt first record: %v, want no recovered versions", err)
	}
	if v := mustPublish(t, r2, req); v.Number != 1 {
		t.Errorf("restart number = %d, want 1", v.Number)
	}
}

func TestCrashBetweenCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir, Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	mustPublish(t, r, req)

	// Keep the pre-checkpoint WAL image, checkpoint (which empties the
	// log), then put the old records back — exactly the disk state of a
	// crash after the manifest rename but before the WAL truncate.
	walBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	abandon(r)
	if err := os.WriteFile(filepath.Join(dir, walName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery must skip the already-absorbed records (their Seq is
	// covered by the manifest) instead of double-applying them.
	r2 := openRepo(t, dir, Config{DefaultPolicy: PolicyNone})
	vs, err := r2.Versions(testSubject)
	if err != nil || len(vs) != 2 {
		t.Fatalf("%d versions, %v; want 2", len(vs), err)
	}
	if v := mustPublish(t, r2, req); v.Number != 3 {
		t.Errorf("number = %d, want 3", v.Number)
	}
}

func TestWALSeqGapDiscardsLog(t *testing.T) {
	// A WAL whose first record does not continue the manifest's
	// sequence means records were lost; recovery must serve the
	// checkpoint alone rather than a state with holes.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, durable.BlobDir), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := &walRecord{Seq: 5, Op: opPublish, Subject: "s", Policy: PolicyNone,
		Version: &Version{Number: 1, InputSHA256: strings.Repeat("0", 64), Files: []FileRef{{Name: "a.xsd", SHA256: strings.Repeat("0", 64)}}}}
	line, err := durable.EncodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), line, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openRepo(t, dir, Config{})
	if subs := r.Subjects(); len(subs) != 0 {
		t.Errorf("gapped WAL produced subjects: %+v", subs)
	}
	// The bogus log was truncated away.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Errorf("gapped WAL not discarded: %v, %v", fi, err)
	}
}

func TestManifestCheckpointFault(t *testing.T) {
	dir := t.TempDir()
	var manifestFault faultSeam
	r := openRepo(t, dir, Config{DefaultPolicy: PolicyNone, CheckpointEvery: 1 << 20, FaultManifest: manifestFault.hook})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	mustPublish(t, r, req)

	manifestFault.wrap = func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: 16} }
	err := r.Checkpoint()
	manifestFault.wrap = nil
	if err == nil {
		t.Fatal("checkpoint succeeded through a failing manifest writer")
	}
	assertNoTempFiles(t, dir)
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Errorf("partial manifest left behind: %v", err)
	}

	// The records stayed in the WAL: a crash now loses nothing.
	abandon(r)
	r2 := openRepo(t, dir, Config{DefaultPolicy: PolicyNone})
	if vs, _ := r2.Versions(testSubject); len(vs) != 2 {
		t.Errorf("%d versions after failed checkpoint + reopen, want 2", len(vs))
	}

	// And a later checkpoint (no fault) still works on the recovered
	// repository.
	if err := r2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

func TestBlobWriteFault(t *testing.T) {
	dir := t.TempDir()
	var blobFault faultSeam
	r := openRepo(t, dir, Config{DefaultPolicy: PolicyNone, FaultBlob: blobFault.hook})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())

	blobFault.wrap = func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: 128} }
	_, err := r.Publish(req)
	blobFault.wrap = nil
	if err == nil {
		t.Fatal("publish succeeded through a failing blob writer")
	}
	if vs, err := r.Versions(testSubject); !errors.Is(err, ErrNotFound) {
		t.Errorf("failed publish committed %d versions: %v", len(vs), err)
	}
	assertNoTempFiles(t, dir)

	// The store is consistent: the same publish succeeds afterwards and
	// serves intact content.
	v := mustPublish(t, r, req)
	data, err := r.VersionFile(testSubject, v.Number, req.Files[0].Name)
	if err != nil || !bytes.Equal(data, req.Files[0].Data) {
		t.Errorf("content after recovered publish differs: %v", err)
	}
	if st := r.Stats(); st.Blobs != int64(len(req.Files))+2 {
		t.Errorf("blob count %d after fault + retry, want %d", st.Blobs, len(req.Files)+2)
	}
}

func TestOpenRemovesTempResidue(t *testing.T) {
	dir := t.TempDir()
	fan := filepath.Join(dir, durable.BlobDir, "ab")
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, manifestName+".tmp123"),
		filepath.Join(dir, walName+".tmp9"),
		filepath.Join(fan, "deadbeef.tmp42"),
	} {
		if err := os.WriteFile(p, []byte("residue"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openRepo(t, dir, Config{})
	assertNoTempFiles(t, dir)
}

// TestWALFrameBytesPinned pins the frame encoding of a repository
// record: a repository written by an earlier version must still open.
func TestWALFrameBytesPinned(t *testing.T) {
	const sha = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	const line = `94bacbdd {"seq":1,"op":"publish","subject":"urn:test","policy":"none","version":{"number":1,"inputSha256":"` + sha + `","inputSize":12,"fingerprint":"fp","files":[{"name":"a.xsd","sha256":"` + sha + `","size":12}]}}` + "\n"
	rec := &walRecord{Seq: 1, Op: opPublish, Subject: "urn:test", Policy: PolicyNone,
		Version: &Version{Number: 1, InputSHA256: sha, InputSize: 12, Fingerprint: "fp", Files: []FileRef{{Name: "a.xsd", SHA256: sha, Size: 12}}}}
	got, err := durable.EncodeFrame(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != line {
		t.Fatalf("frame bytes changed:\n got %q\nwant %q", got, line)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openRepo(t, dir, Config{})
	v, err := r.Version("urn:test", 1)
	if err != nil {
		t.Fatalf("pinned version not recovered: %v", err)
	}
	if v.Fingerprint != "fp" || len(v.Files) != 1 || v.Files[0].SHA256 != sha {
		t.Fatalf("pinned version recovered wrong: %+v", v)
	}
	if r.WALSeq() != 1 {
		t.Fatalf("WALSeq = %d, want 1", r.WALSeq())
	}
}
