package jobs

import (
	"archive/zip"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/faultio"
	"github.com/go-ccts/ccts/internal/metrics"
)

// fakeZip builds a tiny deterministic archive so executor outputs are
// distinguishable per item.
func fakeZip(tb testing.TB, name, body string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Store})
	if err != nil {
		tb.Fatalf("zip entry: %v", err)
	}
	w.Write([]byte(body))
	if err := zw.Close(); err != nil {
		tb.Fatalf("zip close: %v", err)
	}
	return buf.Bytes()
}

// echoExec is an executor that returns a zip derived from the item
// name and model bytes, emitting a couple of status lines.
func echoExec(tb testing.TB) Executor {
	return func(ctx context.Context, item ItemSpec, model []byte, status func(string)) ([]byte, error) {
		status("processing " + item.Name)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		status("emitted " + item.Name)
		return fakeZip(tb, item.Name+".xsd", item.Name+":"+string(model)), nil
	}
}

func submitItems(names ...string) []SubmitItem {
	items := make([]SubmitItem, len(names))
	for i, n := range names {
		items[i] = SubmitItem{Name: n, Model: []byte("model-" + n), Library: "EB005", Target: "xsd"}
	}
	return items
}

// waitState polls until the job reaches a terminal state or the
// deadline passes.
func waitState(tb testing.TB, m *Manager, id string, want State) *Snapshot {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			tb.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			tb.Fatalf("job %s settled as %s, want %s", id, snap.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("job %s did not reach %s", id, want)
	return nil
}

func TestSubmitRunResult(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	m.Start()
	defer m.Close(context.Background())

	snap, err := m.Submit("batch", 0, submitItems("a", "b", "c"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.ID != "j000001" || snap.State != Queued || len(snap.Items) != 3 {
		t.Fatalf("unexpected submit snapshot: %+v", snap)
	}

	final := waitState(t, m, snap.ID, Completed)
	if final.Done != 3 || final.FailedItems != 0 {
		t.Fatalf("unexpected final counts: %+v", final)
	}

	results, _, err := m.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		want := fakeZip(t, r.Name+".xsd", fmt.Sprintf("%s:model-%s", r.Name, r.Name))
		if !bytes.Equal(r.Zip, want) {
			t.Fatalf("result %d (%s) differs from executor output", i, r.Name)
		}
	}
}

func TestEventStreamOrdering(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	m.Start()
	defer m.Close(context.Background())

	snap, err := m.Submit("", 0, submitItems("x", "y"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var events []Event
	after := int64(0)
	for {
		evs, done, err := m.Wait(ctx, snap.ID, after, nil)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		events = append(events, evs...)
		if len(evs) > 0 {
			after = evs[len(evs)-1].ID
		}
		if done {
			break
		}
	}

	if events[0].Type != EventQueued {
		t.Fatalf("first event %s, want queued", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != EventTerminal || last.State != Completed || last.Done != 2 {
		t.Fatalf("terminal event wrong: %+v", last)
	}
	var prev int64
	starts, dones := 0, 0
	for _, ev := range events {
		if ev.ID <= prev {
			t.Fatalf("event IDs not monotonic: %d after %d", ev.ID, prev)
		}
		prev = ev.ID
		switch ev.Type {
		case EventItemStarted:
			starts++
		case EventItemDone:
			dones++
		}
	}
	if starts != 2 || dones != 2 {
		t.Fatalf("got %d starts / %d dones, want 2/2", starts, dones)
	}
}

func TestFailedItemSettlesJobFailed(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(func(ctx context.Context, item ItemSpec, model []byte, status func(string)) ([]byte, error) {
		if item.Name == "bad" {
			return nil, errors.New("boom: no such library")
		}
		return fakeZip(t, item.Name+".xsd", item.Name), nil
	})
	m.Start()
	defer m.Close(context.Background())

	snap, err := m.Submit("", 0, submitItems("good", "bad"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, m, snap.ID, Failed)
	if final.Done != 2 || final.FailedItems != 1 {
		t.Fatalf("unexpected counts: %+v", final)
	}
	if final.Items[1].Error == "" || !strings.Contains(final.Items[1].Error, "boom") {
		t.Fatalf("item error not recorded: %+v", final.Items[1])
	}

	// Whole-job result refuses; the finished item stays fetchable.
	if _, _, err := m.Result(snap.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result of failed job: %v, want ErrNotFinished", err)
	}
	item, err := m.ResultItem(snap.ID, 1)
	if err != nil {
		t.Fatalf("ResultItem: %v", err)
	}
	if item.Name != "good" {
		t.Fatalf("wrong item: %+v", item)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	m.SetExecutor(func(ctx context.Context, item ItemSpec, model []byte, status func(string)) ([]byte, error) {
		<-gate
		mu.Lock()
		order = append(order, item.Name)
		mu.Unlock()
		return fakeZip(t, item.Name, item.Name), nil
	})
	m.Start()
	defer m.Close(context.Background())

	// Submit while the single worker is blocked so all three jobs are
	// queued together; priority must outrank submission order.
	lo, _ := m.Submit("lo", 0, submitItems("lo1"))
	hi, _ := m.Submit("hi", 5, submitItems("hi1"))
	mid, _ := m.Submit("mid", 2, submitItems("mid1"))
	close(gate)
	waitState(t, m, lo.ID, Completed)
	waitState(t, m, hi.ID, Completed)
	waitState(t, m, mid.ID, Completed)

	mu.Lock()
	defer mu.Unlock()
	// The first pop may race the submissions; the tail must be in
	// priority order once all three were queued.
	got := strings.Join(order, ",")
	if got != "lo1,hi1,mid1" && got != "hi1,mid1,lo1" {
		t.Fatalf("execution order %q not priority-consistent", got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	started := make(chan struct{})
	var once sync.Once
	m.SetExecutor(func(ctx context.Context, item ItemSpec, model []byte, status func(string)) ([]byte, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	m.Start()
	defer m.Close(context.Background())

	snap, err := m.Submit("", 0, submitItems("r", "q"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started // item 1 running, item 2 queued

	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitState(t, m, snap.ID, Canceled)
	for i, it := range final.Items {
		if it.Status != ItemCanceled {
			t.Fatalf("item %d status %s, want canceled", i, it.Status)
		}
	}
	if _, err := m.Cancel(snap.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("second Cancel: %v, want ErrFinished", err)
	}
}

func TestLookupErrors(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())
	if _, err := m.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v, want ErrNotFound", err)
	}
	if _, _, err := m.Result("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Result unknown: %v, want ErrNotFound", err)
	}
}

func TestCrashRecoveryResumesJob(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var finished atomic.Int32
	block := make(chan struct{})
	m.SetExecutor(func(ctx context.Context, item ItemSpec, model []byte, status func(string)) ([]byte, error) {
		if item.Name == "b" {
			// Simulate a long item: stall until crash.
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		finished.Add(1)
		return fakeZip(t, item.Name+".xsd", item.Name+":"+string(model)), nil
	})
	m.Start()

	snap, err := m.Submit("batch", 0, submitItems("a", "b", "c"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until item a is durably done and b is stalled.
	deadline := time.Now().Add(10 * time.Second)
	for finished.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for { // wait for the durable item_done to land in the snapshot
		s, err := m.Get(snap.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if s.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("item a never settled")
		}
		time.Sleep(2 * time.Millisecond)
	}

	m.Kill() // crash: no checkpoint, WAL only

	m2, err := Open(dir, Config{Workers: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	m2.SetExecutor(echoExec(t))

	// Before Start, the recovered snapshot shows a done and b/c pending.
	s, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if s.Done != 1 || s.Items[0].Status != ItemDone {
		t.Fatalf("recovered state wrong: %+v", s)
	}
	if s.Items[1].Status != ItemPending || s.Items[2].Status != ItemPending {
		t.Fatalf("interrupted items not pending: %+v", s.Items)
	}

	m2.Start()
	defer m2.Close(context.Background())
	waitState(t, m2, snap.ID, Completed)

	results, _, err := m2.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result after resume: %v", err)
	}
	for _, r := range results {
		want := fakeZip(t, r.Name+".xsd", fmt.Sprintf("%s:model-%s", r.Name, r.Name))
		if !bytes.Equal(r.Zip, want) {
			t.Fatalf("resumed result %s differs", r.Name)
		}
	}

	// The rebuilt event stream is condensed but consistent: queued,
	// settled prefix, resumed marker, then live events.
	evs, _, err := m2.Wait(context.Background(), snap.ID, 0, nil)
	if err != nil {
		t.Fatalf("Wait after resume: %v", err)
	}
	if evs[0].Type != EventQueued {
		t.Fatalf("rebuilt stream starts with %s", evs[0].Type)
	}
	seenResumed := false
	for _, ev := range evs {
		if ev.Type == EventResumed {
			seenResumed = true
		}
	}
	if !seenResumed {
		t.Fatalf("rebuilt stream missing resumed marker: %+v", evs)
	}
}

func TestGracefulCloseCheckpointsAndReopens(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	m.Start()
	snap, err := m.Submit("", 0, submitItems("a", "b"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, Completed)
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The checkpoint absorbed the WAL: the log restarts empty.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not reset after checkpoint: %v size=%d", err, fi.Size())
	}

	m2, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close(context.Background())
	s, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if s.State != Completed || s.Done != 2 {
		t.Fatalf("checkpointed job wrong: %+v", s)
	}
	results, _, err := m2.Result(snap.ID)
	if err != nil || len(results) != 2 {
		t.Fatalf("Result after reopen: %v (%d)", err, len(results))
	}

	// A new submission continues the ID sequence.
	if got := jobID(s.Seq + 1); got != "j000002" {
		t.Fatalf("next ID %s", got)
	}
}

func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	m.Start()
	snap, err := m.Submit("", 0, submitItems("a"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, Completed)
	m.Kill()

	// Tear the last record mid-line.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatalf("tear WAL: %v", err)
	}

	m2, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer m2.Close(context.Background())
	s, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	// The torn record was the job's terminal done; the durable item_done
	// survives, so recovery refinishes the job from item state.
	if s.Items[0].Status != ItemDone {
		t.Fatalf("item lost to torn tail: %+v", s)
	}
}

func TestRetentionExpiresJobs(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1, Retention: 10 * time.Millisecond, SweepInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	m.Start()
	defer m.Close(context.Background())

	snap, err := m.Submit("", 0, submitItems("a"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, Completed)
	resultSHA := func() string {
		s, _ := m.Get(snap.ID)
		return s.Items[0].ResultSHA
	}()

	m.sweep(time.Now().Add(time.Hour)) // force the window past

	if _, err := m.Get(snap.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("Get expired: %v, want ErrExpired", err)
	}
	if _, _, err := m.Result(snap.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("Result expired: %v, want ErrExpired", err)
	}
	if _, err := m.store.blob(resultSHA); err == nil {
		t.Fatal("expired result blob still present")
	}

	// Expiry survives restart as a tombstone.
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m2, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close(context.Background())
	if _, err := m2.Get(snap.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("Get expired after reopen: %v, want ErrExpired", err)
	}
}

func TestSubmitAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	m.Start()
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.Submit("", 0, submitItems("a")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestMetricsCounts(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mx := metrics.NewRegistry()
	m.Instrument(mx)
	m.SetExecutor(echoExec(t))
	m.Start()
	defer m.Close(context.Background())

	snap, err := m.Submit("", 0, submitItems("a", "b"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, Completed)

	vals := mx.Snapshot()
	if vals["jobs_submitted_total"] != 1 || vals["jobs_completed_total"] != 1 {
		t.Fatalf("job counters wrong: %v", vals)
	}
	if vals["jobs_items_total"] != 2 || vals["jobs_item_ns_total"] <= 0 {
		t.Fatalf("item counters wrong: %v", vals)
	}
	if vals["jobs_running"] != 0 || vals["jobs_queue_depth"] != 0 {
		t.Fatalf("gauges not drained: %v", vals)
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		dir := t.TempDir()
		m, err := Open(dir, Config{Workers: 4, Retention: time.Hour, SweepInterval: time.Millisecond})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		m.SetExecutor(echoExec(t))
		m.Start()
		snap, err := m.Submit("", 0, submitItems("a", "b", "c", "d"))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitState(t, m, snap.ID, Completed)
		if err := m.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestScanWALRejectsGapAndCorruption(t *testing.T) {
	r1, _ := durable.EncodeFrame(&record{Seq: 1, Op: opSubmit, Job: "j000001", JobSeq: 1, Spec: &Spec{Items: []ItemSpec{{Name: "a"}}}})
	r2, _ := durable.EncodeFrame(&record{Seq: 2, Op: opCancel, Job: "j000001"})
	r4, _ := durable.EncodeFrame(&record{Seq: 4, Op: opCancel, Job: "j000001"})

	// Contiguous prefix decodes; the seq gap stops the scan.
	data := append(append(append([]byte{}, r1...), r2...), r4...)
	recs, goodLen := durable.Scan(data, decodeLine)
	if len(recs) != 2 || goodLen != len(r1)+len(r2) {
		t.Fatalf("gap scan: %d recs, goodLen %d", len(recs), goodLen)
	}

	// A flipped byte in the payload invalidates that record onward.
	corrupt := append(append([]byte{}, r1...), r2...)
	corrupt[len(r1)+12] ^= 0xff
	recs, goodLen = durable.Scan(corrupt, decodeLine)
	if len(recs) != 1 || goodLen != len(r1) {
		t.Fatalf("corrupt scan: %d recs, goodLen %d", len(recs), goodLen)
	}
}

// failSync passes writes through and fails the fsync after them: the
// log's wrap seam calls a wrapped writer's Sync in place of the file's.
type failSync struct{ io.Writer }

func (failSync) Sync() error { return faultio.ErrInjected }

// TestWALAppendFaultRollsBack injects a short write and then a failed
// fsync into two submissions. Both fail, and neither may leave bytes
// in the log: a later acknowledged job and every record after it (its
// item completions and terminal record) must survive a crash.
func TestWALAppendFaultRollsBack(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	m.SetExecutor(echoExec(t))
	first, err := m.Submit("", 0, submitItems("a"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// No worker runs yet, so the test owns the log's seam.
	for _, fault := range []func(io.Writer) io.Writer{
		func(w io.Writer) io.Writer { return &faultio.Writer{W: w, Limit: 40} },
		func(w io.Writer) io.Writer { return failSync{w} },
	} {
		m.store.wal.Wrap = fault
		if _, err := m.Submit("", 0, submitItems("lost")); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("Submit through a failing WAL: %v, want the injected fault", err)
		}
	}
	m.store.wal.Wrap = nil

	acked, err := m.Submit("", 0, submitItems("b", "c"))
	if err != nil {
		t.Fatalf("Submit after faults: %v", err)
	}
	m.Start()
	waitState(t, m, first.ID, Completed)
	waitState(t, m, acked.ID, Completed)
	m.Kill()

	m2, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close(context.Background())
	for _, id := range []string{first.ID, acked.ID} {
		s, err := m2.Get(id)
		if err != nil {
			t.Fatalf("acknowledged job lost: %v", err)
		}
		if s.State != Completed {
			t.Fatalf("job %s recovered as %s, want completed", id, s.State)
		}
	}
	results, _, err := m2.Result(acked.ID)
	if err != nil || len(results) != 2 {
		t.Fatalf("Result after reopen: %v (%d)", err, len(results))
	}
}

// TestWALFrameBytesPinned pins the frame encoding of a jobs record: a
// job directory written by an earlier version must still open.
func TestWALFrameBytesPinned(t *testing.T) {
	const sha = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	const line = `55ad4eb1 {"seq":1,"op":"submit","job":"j000001","spec":{"name":"batch","items":[{"name":"a","modelSHA":"` + sha + `","library":"EB005","target":"xsd"}]},"jobSeq":1,"at":1700000000000000000}` + "\n"
	rec := &record{Seq: 1, Op: opSubmit, Job: "j000001", JobSeq: 1, At: 1700000000000000000,
		Spec: &Spec{Name: "batch", Items: []ItemSpec{{Name: "a", ModelSHA: sha, Library: "EB005", Target: "xsd"}}}}
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
	m, err := Open(dir, Config{Workers: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close(context.Background())
	s, err := m.Get("j000001")
	if err != nil {
		t.Fatalf("pinned job not recovered: %v", err)
	}
	if s.Spec.Name != "batch" || len(s.Items) != 1 || s.Items[0].Spec.ModelSHA != sha {
		t.Fatalf("pinned job recovered wrong: %+v", s)
	}
}
