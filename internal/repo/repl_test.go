package repo

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/fixture"
)

// replicate ships every frame the follower is missing from primary and
// applies it (fetching referenced blobs first), returning the follower's
// new applied seq.
func replicate(t *testing.T, primary, follower *Repo) int64 {
	t.Helper()
	for {
		frames, _, err := primary.WALTail(follower.WALSeq(), 0)
		if err != nil {
			t.Fatalf("WALTail(%d): %v", follower.WALSeq(), err)
		}
		if len(frames) == 0 {
			return follower.WALSeq()
		}
		for _, line := range frames {
			fr, err := DecodeFrame(line)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			for _, sha := range fr.Blobs {
				if follower.HasBlob(sha) {
					continue
				}
				data, err := primary.Blob(sha)
				if err != nil {
					t.Fatalf("fetching blob %s: %v", sha, err)
				}
				if got, err := follower.PutBlob(data); err != nil || got != sha {
					t.Fatalf("PutBlob: %s, %v (want %s)", got, err, sha)
				}
			}
			if _, err := follower.ApplyFrame(line); err != nil {
				t.Fatalf("ApplyFrame(seq %d): %v", fr.Seq, err)
			}
		}
	}
}

// bootstrap installs a primary snapshot into the follower, fetching the
// blobs it references.
func bootstrap(t *testing.T, primary, follower *Repo) {
	t.Helper()
	data, _, err := primary.SnapshotManifest()
	if err != nil {
		t.Fatalf("SnapshotManifest: %v", err)
	}
	_, blobs, err := SnapshotBlobs(data)
	if err != nil {
		t.Fatalf("SnapshotBlobs: %v", err)
	}
	for _, sha := range blobs {
		b, err := primary.Blob(sha)
		if err != nil {
			t.Fatalf("fetching blob %s: %v", sha, err)
		}
		if _, err := follower.PutBlob(b); err != nil {
			t.Fatalf("PutBlob: %v", err)
		}
	}
	if err := follower.InstallSnapshot(data); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
}

// assertIdentical compares every subject, version and file byte-for-byte
// between two repositories.
func assertIdentical(t *testing.T, primary, follower *Repo) {
	t.Helper()
	ps, fs := primary.Subjects(), follower.Subjects()
	if len(ps) != len(fs) {
		t.Fatalf("subject count: primary %d, follower %d", len(ps), len(fs))
	}
	for i := range ps {
		if ps[i] != fs[i] {
			t.Fatalf("subject %d: primary %+v, follower %+v", i, ps[i], fs[i])
		}
		pv, err := primary.Versions(ps[i].Name)
		if err != nil {
			t.Fatalf("primary Versions: %v", err)
		}
		fv, err := follower.Versions(ps[i].Name)
		if err != nil {
			t.Fatalf("follower Versions: %v", err)
		}
		if len(pv) != len(fv) {
			t.Fatalf("version count %s: primary %d, follower %d", ps[i].Name, len(pv), len(fv))
		}
		for j := range pv {
			if pv[j].Number != fv[j].Number || pv[j].Deleted != fv[j].Deleted || pv[j].InputSHA256 != fv[j].InputSHA256 {
				t.Fatalf("version %s/%d diverges: %+v vs %+v", ps[i].Name, pv[j].Number, pv[j], fv[j])
			}
			if pv[j].Deleted {
				continue
			}
			for _, f := range pv[j].Files {
				want, err := primary.VersionFile(ps[i].Name, pv[j].Number, f.Name)
				if err != nil {
					t.Fatalf("primary VersionFile: %v", err)
				}
				got, err := follower.VersionFile(ps[i].Name, pv[j].Number, f.Name)
				if err != nil {
					t.Fatalf("follower VersionFile: %v", err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("file %s of %s/%d differs between primary and follower", f.Name, ps[i].Name, pv[j].Number)
				}
			}
		}
	}
}

func TestWALTailStreamsCommits(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())

	frames, notify, err := r.WALTail(0, 0)
	if err != nil {
		t.Fatalf("WALTail on empty repo: %v", err)
	}
	if len(frames) != 0 {
		t.Fatalf("empty repo returned %d frames", len(frames))
	}
	select {
	case <-notify:
		t.Fatal("notify fired before any commit")
	default:
	}

	mustPublish(t, r, req)
	select {
	case <-notify:
	case <-time.After(5 * time.Second):
		t.Fatal("notify did not fire on commit")
	}
	mustPublish(t, r, req)

	frames, _, err = r.WALTail(0, 0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	// Frames are the WAL bytes: concatenating them must rescan cleanly
	// with contiguous sequence numbers.
	recs, goodLen := durable.Scan(bytes.Join(frames, nil), decodeLine)
	if len(recs) != 2 || goodLen != len(bytes.Join(frames, nil)) {
		t.Fatalf("frame concatenation did not rescan: %d recs, goodLen %d", len(recs), goodLen)
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Fatalf("frame %d has seq %d", i, rec.Seq)
		}
	}

	// A partial read resumes mid-tail.
	frames, _, err = r.WALTail(1, 0)
	if err != nil || len(frames) != 1 {
		t.Fatalf("WALTail(1): %d frames, %v", len(frames), err)
	}
	if fr, err := DecodeFrame(frames[0]); err != nil || fr.Seq != 2 {
		t.Fatalf("resumed frame: %+v, %v", fr, err)
	}
}

func TestWALTailGapAndCap(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{ReplTail: 2})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	for i := 0; i < 3; i++ {
		mustPublish(t, r, req)
	}
	// Seq 1 left the capped tail: streaming from 0 must demand a
	// re-bootstrap, not serve a gapped stream.
	if _, _, err := r.WALTail(0, 0); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("WALTail(0) after cap eviction: %v, want ErrSeqGap", err)
	}
	if frames, _, err := r.WALTail(1, 0); err != nil || len(frames) != 2 {
		t.Fatalf("WALTail(1): %d frames, %v", len(frames), err)
	}
	// Ahead of the log = diverged pair.
	if _, _, err := r.WALTail(99, 0); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("WALTail(99): %v, want ErrSeqGap", err)
	}
}

func TestTailSurvivesCheckpoint(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	mustPublish(t, r, req)
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The WAL file is empty now, but replication must keep serving the
	// retained tail.
	frames, _, err := r.WALTail(0, 0)
	if err != nil {
		t.Fatalf("WALTail after checkpoint: %v", err)
	}
	if len(frames) != 2 {
		t.Fatalf("got %d frames after checkpoint, want 2", len(frames))
	}
}

func TestReplicationByteIdentical(t *testing.T) {
	primary := openRepo(t, t.TempDir(), Config{})
	follower := openRepo(t, t.TempDir(), Config{})

	f := fixture.MustBuildHoardingPermit()
	mustPublish(t, primary, buildRequest(t, f))
	additive(f)
	mustPublish(t, primary, buildRequest(t, f))

	replicate(t, primary, follower)
	assertIdentical(t, primary, follower)

	// Later mutations (including tombstones) keep streaming.
	mustPublish(t, primary, buildRequest(t, f))
	if err := primary.Delete(testSubject, 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	replicate(t, primary, follower)
	assertIdentical(t, primary, follower)
	if follower.WALSeq() != primary.WALSeq() {
		t.Fatalf("seq mismatch: primary %d, follower %d", primary.WALSeq(), follower.WALSeq())
	}
}

func TestSnapshotBootstrapAndResume(t *testing.T) {
	primary := openRepo(t, t.TempDir(), Config{})
	f := fixture.MustBuildHoardingPermit()
	mustPublish(t, primary, buildRequest(t, f))
	mustPublish(t, primary, buildRequest(t, f))
	if err := primary.Delete(testSubject, 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	followerDir := t.TempDir()
	follower := openRepo(t, followerDir, Config{})
	bootstrap(t, primary, follower)
	if follower.WALSeq() != primary.WALSeq() {
		t.Fatalf("after bootstrap: follower seq %d, primary %d", follower.WALSeq(), primary.WALSeq())
	}
	assertIdentical(t, primary, follower)

	// Stream resumes from the snapshot's seq.
	mustPublish(t, primary, buildRequest(t, f))
	replicate(t, primary, follower)
	assertIdentical(t, primary, follower)

	// A restarted follower resumes from its applied seq: the installed
	// manifest plus its own WAL reproduce the state without a new
	// bootstrap.
	seq := follower.WALSeq()
	if err := follower.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened := openRepo(t, followerDir, Config{})
	if reopened.WALSeq() != seq {
		t.Fatalf("reopened follower at seq %d, want %d", reopened.WALSeq(), seq)
	}
	assertIdentical(t, primary, reopened)
}

func TestInstallSnapshotRefusesMissingBlobs(t *testing.T) {
	primary := openRepo(t, t.TempDir(), Config{})
	mustPublish(t, primary, buildRequest(t, fixture.MustBuildHoardingPermit()))
	data, _, err := primary.SnapshotManifest()
	if err != nil {
		t.Fatalf("SnapshotManifest: %v", err)
	}
	follower := openRepo(t, t.TempDir(), Config{})
	if err := follower.InstallSnapshot(data); !errors.Is(err, ErrMissingBlob) {
		t.Fatalf("InstallSnapshot without blobs: %v, want ErrMissingBlob", err)
	}
	// Nothing changed: the follower still serves the empty state.
	if n := len(follower.Subjects()); n != 0 {
		t.Fatalf("failed install left %d subjects", n)
	}
}

func TestApplyFrameValidation(t *testing.T) {
	primary := openRepo(t, t.TempDir(), Config{})
	follower := openRepo(t, t.TempDir(), Config{})
	mustPublish(t, primary, buildRequest(t, fixture.MustBuildHoardingPermit()))
	mustPublish(t, primary, buildRequest(t, fixture.MustBuildHoardingPermit()))
	frames, _, err := primary.WALTail(0, 0)
	if err != nil || len(frames) != 2 {
		t.Fatalf("WALTail: %d frames, %v", len(frames), err)
	}

	// Garbage and corrupted frames are rejected as ErrBadFrame.
	if _, err := follower.ApplyFrame([]byte("not a frame\n")); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage frame: %v, want ErrBadFrame", err)
	}
	corrupt := bytes.Replace(frames[0], []byte(`"seq":1`), []byte(`"seq":9`), 1)
	if _, err := follower.ApplyFrame(corrupt); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("CRC-mismatched frame: %v, want ErrBadFrame", err)
	}

	// A frame whose blobs are not resident is refused before any write.
	if _, err := follower.ApplyFrame(frames[0]); !errors.Is(err, ErrMissingBlob) {
		t.Fatalf("frame without blobs: %v, want ErrMissingBlob", err)
	}
	fr, err := DecodeFrame(frames[0])
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	for _, sha := range fr.Blobs {
		b, err := primary.Blob(sha)
		if err != nil {
			t.Fatalf("Blob: %v", err)
		}
		if _, err := follower.PutBlob(b); err != nil {
			t.Fatalf("PutBlob: %v", err)
		}
	}

	// Out-of-order delivery is a gap, not a partial apply.
	fr2, err := DecodeFrame(frames[1])
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	for _, sha := range fr2.Blobs {
		b, _ := primary.Blob(sha)
		follower.PutBlob(b)
	}
	if _, err := follower.ApplyFrame(frames[1]); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("skipped frame: %v, want ErrSeqGap", err)
	}

	if seq, err := follower.ApplyFrame(frames[0]); err != nil || seq != 1 {
		t.Fatalf("ApplyFrame(1): %d, %v", seq, err)
	}
	// Re-delivery is acknowledged idempotently.
	if seq, err := follower.ApplyFrame(frames[0]); err != nil || seq != 1 {
		t.Fatalf("re-delivered frame: %d, %v", seq, err)
	}

	// A frame that decodes but conflicts with local state is divergence
	// and must not reach the WAL.
	sizeBefore := follower.WALSeq()
	rec, _, ok := decodeLine(bytes.TrimSuffix(frames[1], []byte("\n")))
	if !ok {
		t.Fatal("decodeLine on valid frame failed")
	}
	rec.Seq = follower.WALSeq() + 1
	rec.Version.Number = 1 // conflicts with the version already applied
	diverged, err := durable.EncodeFrame(rec)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	if _, err := follower.ApplyFrame(diverged); !errors.Is(err, ErrDiverged) {
		t.Fatalf("conflicting frame: %v, want ErrDiverged", err)
	}
	if follower.WALSeq() != sizeBefore {
		t.Fatal("diverged frame advanced the WAL")
	}

	// The stream continues after the follower resynchronizes its view.
	if seq, err := follower.ApplyFrame(frames[1]); err != nil || seq != 2 {
		t.Fatalf("ApplyFrame(2): %d, %v", seq, err)
	}
	assertIdentical(t, primary, follower)
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	r := openRepo(t, t.TempDir(), Config{})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)

	// Long-pollers blocked on the commit channel must be woken by Close.
	_, notify, err := r.WALTail(r.WALSeq(), 0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := r.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Racing Checkpoint and Publish may see ErrClosed; they must
			// never panic or corrupt the handle.
			if err := r.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Checkpoint: %v", err)
			}
			if _, err := r.Publish(req); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Publish: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	select {
	case <-notify:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the long-poll channel")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := r.WALTail(0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WALTail after Close: %v, want ErrClosed", err)
	}
}

func TestTailRebuiltOnReopen(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir, Config{})
	req := buildRequest(t, fixture.MustBuildHoardingPermit())
	mustPublish(t, r, req)
	mustPublish(t, r, req)
	frames, _, err := r.WALTail(0, 0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}
	seq := r.WALSeq()

	// Simulate a crash: snapshot the directory while the repository is
	// still open (every commit is fsync'd, no checkpoint has run), then
	// reopen the copy. WAL replay must rebuild the replication tail
	// byte-identically to the frames the original served.
	crashDir := copyTree(t, dir)
	reopened := openRepo(t, crashDir, Config{})
	if reopened.WALSeq() != seq {
		t.Fatalf("reopened seq %d, want %d", reopened.WALSeq(), seq)
	}
	rebuilt, _, err := reopened.WALTail(0, 0)
	if err != nil {
		t.Fatalf("WALTail after reopen: %v", err)
	}
	if len(rebuilt) != len(frames) {
		t.Fatalf("rebuilt tail has %d frames, want %d", len(rebuilt), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(frames[i], rebuilt[i]) {
			t.Fatalf("rebuilt frame %d differs from the original", i)
		}
	}
}
