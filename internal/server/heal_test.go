package server

// The self-healing cluster drills: a supervisor-enabled shard cluster
// losing a primary mid-write-burst must promote the designated replica
// (or evacuate a replica-less shard) without an operator, while every
// subject stays readable byte-identically from exactly one owner and
// concurrent supervisors never fork the topology. Run via
// `make heal-smoke` (always under -race).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/go-ccts/ccts/internal/client"
	"github.com/go-ccts/ccts/internal/health"
	"github.com/go-ccts/ccts/internal/metrics"
	"github.com/go-ccts/ccts/internal/repl"
	"github.com/go-ccts/ccts/internal/repo"
	"github.com/go-ccts/ccts/internal/shard"
)

// healNode is one member of a supervised test cluster: a shardNode
// plus the resilience wiring (supervisor, health tracker, follower).
type healNode struct {
	*shardNode
	tracker  *health.Tracker
	follower *repl.Follower
	sup      *shard.Supervisor
}

// healOpts selects a heal-test node's role.
type healOpts struct {
	// supervise starts the shard supervisor at the given pace.
	supervise     bool
	probeInterval time.Duration
	failMisses    int
	// replicaOf runs the node as a standby follower of that primary; it
	// still mounts the shard router, so its shard's reads serve locally
	// and a promotion makes it a full primary in place (the server-side
	// shape of ccserved's -shard-replica-of-map).
	replicaOf string
	// withHealth attaches a health tracker so the test can inject write
	// faults (read-only flips).
	withHealth bool
}

// startHealNode opens a repository + router over dir/mapPath and serves
// it at addr with the requested resilience wiring.
func startHealNode(t *testing.T, id, addr, dir, mapPath string, o healOpts) *healNode {
	t.Helper()
	rcfg := repo.Config{}
	var tracker *health.Tracker
	if o.withHealth {
		tracker = health.NewTracker(health.Options{})
		rcfg.Health = tracker
	}
	rp, err := repo.Open(dir, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.OpenRouter(mapPath, id)
	if err != nil {
		rp.Close()
		t.Fatal(err)
	}
	mx := metrics.NewRegistry()
	cfg := Config{
		Repo:               rp,
		Shard:              rt,
		Health:             tracker,
		ReplSource:         repl.NewSource(rp, repl.SourceOptions{Window: 100 * time.Millisecond}),
		Metrics:            mx,
		ShardSupervise:     o.supervise,
		ShardProbeInterval: o.probeInterval,
		ShardFailMisses:    o.failMisses,
		ShardLogf:          t.Logf,
	}
	var fol *repl.Follower
	if o.replicaOf != "" {
		fol = repl.NewFollower(rp, o.replicaOf, repl.FollowerOptions{
			PollWindow:    200 * time.Millisecond,
			ProbeInterval: 100 * time.Millisecond,
		})
		cfg.Follower = fol
	}
	srv := New(cfg)
	if fol != nil {
		fol.Start() // after New has instrumented it, as ccserved does
	}
	ln := shardListen(t, addr)
	n := &healNode{
		shardNode: &shardNode{
			id: id, addr: ln.Addr().String(), base: "http://" + ln.Addr().String(),
			dir: dir, mapPath: mapPath, repo: rp, server: srv, metrics: mx,
		},
		tracker:  tracker,
		follower: fol,
		sup:      srv.ShardSupervisor(),
	}
	if n.sup != nil {
		n.sup.Start()
	}
	stopHTTP := shardServeOn(ln, srv.Handler())
	var once sync.Once
	n.stop = func() {
		once.Do(func() {
			if n.sup != nil {
				n.sup.Stop()
			}
			if fol != nil {
				fol.Stop()
			}
			stopHTTP()
		})
	}
	return n
}

// healWaitFor polls cond until it holds or the budget runs out.
func healWaitFor(t *testing.T, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", budget, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchMap GETs and parses a node's installed shard map.
func fetchMap(t *testing.T, base string) *shard.Map {
	t.Helper()
	code, data := shardGet(t, base, "/v1/shard/map")
	if code != http.StatusOK {
		t.Fatalf("GET %s/v1/shard/map = %d", base, code)
	}
	m, err := shard.ParseMap(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHealSelfHealingClusterDrill is the cluster-wide chaos drill: a
// 3-primary cluster with a designated replica for shard c takes a
// publish burst through a shard-aware client while supervisors run on
// two nodes. Shard c is hard-killed mid-burst — the supervisors must
// promote its replica within the probe budget and converge every node
// onto one new map. Then shard b (no replica) loses its disk to a
// write fault — the supervisors must evacuate its subjects onto the
// survivors via the crash-resumable rebalance. Throughout, every
// subject stays readable byte-identically from exactly one owner, two
// concurrent supervisors never install conflicting epochs, and nothing
// leaks a goroutine.
func TestHealSelfHealingClusterDrill(t *testing.T) {
	before := runtime.NumGoroutine()

	// Reserve the four addresses first: the map must name them before
	// the nodes start. r is shard c's designated standby.
	addrs := make([]string, 4)
	for i := range addrs {
		ln := shardListen(t, "127.0.0.1:0")
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	aAddr, bAddr, cAddr, rAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	rBase := "http://" + rAddr
	shards := []shard.Shard{
		{ID: "a", Addr: "http://" + aAddr},
		{ID: "b", Addr: "http://" + bAddr},
		{ID: "c", Addr: "http://" + cAddr, Replicas: []string{rBase}},
	}
	m1, err := shard.NewMap(1, 16, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapFile := func() string {
		p := filepath.Join(t.TempDir(), "map.json")
		if err := shard.SaveMap(p, m1); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Supervisors on a AND b: the two-supervisor invariant is part of
	// the drill, not a separate test.
	pace := healOpts{supervise: true, probeInterval: 100 * time.Millisecond, failMisses: 3}
	bOpts := pace
	bOpts.withHealth = true
	a := startHealNode(t, "a", aAddr, t.TempDir(), mapFile(), pace)
	b := startHealNode(t, "b", bAddr, t.TempDir(), mapFile(), bOpts)
	c := startHealNode(t, "c", cAddr, t.TempDir(), mapFile(), healOpts{})
	// The standby mounts the router under its shard's identity (self =
	// "c", exactly what -shard-replica-of-map wires): its shard's reads
	// serve locally from replicated bytes, and a promotion makes it the
	// shard without a restart.
	r := startHealNode(t, "c", rAddr, t.TempDir(), mapFile(), healOpts{replicaOf: "http://" + cAddr})
	nodes := []*healNode{a, b, c, r}
	defer func() {
		for _, n := range nodes {
			n.stop()
			n.repo.Close()
		}
	}()

	// Two subjects per shard through the shard-aware client.
	cl := client.New(a.base, client.Options{Retry: shardFastRetry()})
	ctx := context.Background()
	body := sampleXMI(t)
	additive := additiveXMI(t)
	params := client.PublishParams{Library: "EB005-HoardingPermit", Root: "HoardingPermit"}
	var subjects []string
	for i, id := range []string{"a", "b", "c"} {
		subjects = append(subjects,
			subjectOwnedBy(t, m1, id, 30+i),
			subjectOwnedBy(t, m1, id, 40+i),
		)
	}
	for _, s := range subjects {
		if _, err := cl.Publish(ctx, s, body, params); err != nil {
			t.Fatalf("publish %s: %v", s, err)
		}
	}

	// Baseline: exactly one authoritative owner per subject among the
	// primaries (the standby mirrors c's reads by design, so it is not
	// part of the single-owner sweep until it IS c).
	primaries := []*shardNode{a.shardNode, b.shardNode, c.shardNode}
	baseline := map[string]string{}
	for _, s := range subjects {
		ownerID, listing := singleOwner(t, primaries, s)
		if want := m1.Route(s).Owner.ID; ownerID != want {
			t.Fatalf("subject %s served by %s, ring says %s", s, ownerID, want)
		}
		baseline[s] = string(listing)
	}

	// The standby must be caught up (byte-identical on c's subjects)
	// before the kill: promotion refuses a known-behind replica.
	cSubs := subjects[4:6]
	healWaitFor(t, 15*time.Second, "standby to replicate c's subjects", func() bool {
		for _, s := range cSubs {
			code, data := shardGet(t, r.base, "/v1/repo/subjects/"+s+"/versions")
			if code != http.StatusOK || string(data) != baseline[s] {
				return false
			}
		}
		return true
	})

	// Write burst on the surviving shards while c dies: the cluster
	// must keep taking writes through the failover.
	burstSubs := []string{subjectOwnedBy(t, m1, "a", 50), subjectOwnedBy(t, m1, "b", 51)}
	stopBurst := make(chan struct{})
	var burstWG sync.WaitGroup
	var burstOK atomic.Int64
	burstWG.Add(1)
	go func() {
		defer burstWG.Done()
		bc := client.New(a.base, client.Options{Retry: shardFastRetry()})
		for i := 0; ; i++ {
			select {
			case <-stopBurst:
				return
			default:
			}
			payload := body
			if i >= len(burstSubs) {
				payload = additive
			}
			if _, err := bc.Publish(ctx, burstSubs[i%len(burstSubs)], payload, params); err == nil {
				burstOK.Add(1)
			}
		}
	}()

	time.Sleep(150 * time.Millisecond) // let the burst get going
	c.stop()
	c.repo.Close()

	// The supervisors must confirm the loss (3 misses at 100ms) and
	// fail c over to its standby: a new epoch whose shard c address is
	// the standby's.
	healWaitFor(t, 15*time.Second, "supervisor to promote c's replica", func() bool {
		m := fetchMap(t, a.base)
		sh, ok := m.Shard("c")
		return ok && m.Epoch == 2 && sh.Addr == rBase && len(sh.Replicas) == 0
	})
	close(stopBurst)
	burstWG.Wait()
	if burstOK.Load() == 0 {
		t.Fatal("write burst made no progress across the failover")
	}

	// Every node converges onto byte-identical map bytes (push at heal
	// time, probe-path anti-entropy as backstop).
	live := []*healNode{a, b, r}
	healWaitFor(t, 10*time.Second, "all nodes to converge on the failover map", func() bool {
		var first []byte
		for _, n := range live {
			code, data := shardGet(t, n.base, "/v1/shard/map")
			if code != http.StatusOK {
				return false
			}
			if first == nil {
				first = data
				continue
			}
			if string(first) != string(data) {
				return false
			}
		}
		return true
	})

	// The promoted standby now answers as shard c: every subject is
	// owned by exactly one live node, byte-identically.
	liveShardNodes := []*shardNode{a.shardNode, b.shardNode, r.shardNode}
	for _, s := range subjects {
		_, listing := singleOwner(t, liveShardNodes, s)
		if string(listing) != baseline[s] {
			t.Fatalf("subject %s drifted across the failover:\n%s\nvs\n%s", s, listing, baseline[s])
		}
	}

	// A client still holding the pre-failover map dials the dead
	// primary, re-learns the topology from a live node and lands the
	// write on the promoted replica — one retry, no operator.
	res, err := cl.Publish(ctx, cSubs[0], additive, params)
	if err != nil {
		t.Fatalf("publish to failed-over subject: %v", err)
	}
	if res.Version.Number != 2 {
		t.Fatalf("failed-over subject continued at version %d, want 2", res.Version.Number)
	}
	// That publish legitimately advanced the subject; re-baseline it so
	// the evacuation-phase drift check compares against current truth.
	_, listing := singleOwner(t, liveShardNodes, cSubs[0])
	baseline[cSubs[0]] = string(listing)

	// Phase two: shard b loses its disk (write fault flips it
	// read-only). No replica this time — the supervisor must evacuate
	// b's subjects onto the survivors through the two-epoch rebalance.
	b.tracker.ReportWriteFault(syscall.ENOSPC)
	healWaitFor(t, 30*time.Second, "supervisor to evacuate read-only b", func() bool {
		m := fetchMap(t, a.base)
		_, hasB := m.Shard("b")
		return !hasB && len(m.Migrations) == 0
	})

	final := fetchMap(t, a.base)
	if len(final.Shards) != 2 {
		t.Fatalf("post-evacuation shards = %+v", final.Shards)
	}
	if sh, _ := final.Shard("c"); sh.Addr != rBase {
		t.Fatalf("post-evacuation shard c at %s, want the promoted standby %s", sh.Addr, rBase)
	}

	// Everything b owned reads byte-identically from its new owner; the
	// drained b answers 421 for all of it (read-only, but no longer an
	// owner of anything).
	for _, s := range subjects {
		ownerID, listing := singleOwner(t, liveShardNodes, s)
		if want := final.Route(s).Owner.ID; ownerID != want {
			t.Fatalf("post-evacuation owner of %s = %s, ring says %s", s, ownerID, want)
		}
		if string(listing) != baseline[s] {
			t.Fatalf("subject %s drifted across the evacuation", s)
		}
	}
	for _, s := range burstSubs {
		singleOwner(t, liveShardNodes, s)
	}

	// The aggregate listing merges the healed topology and reaches
	// every owner.
	var agg struct {
		Subjects []struct {
			Name  string `json:"name"`
			Shard string `json:"shard"`
		} `json:"subjects"`
		Shards      int `json:"shards"`
		Reached     int `json:"reached"`
		Unreachable []struct {
			ID string `json:"id"`
		} `json:"unreachable"`
	}
	code, data := shardGet(t, a.base, "/v1/repo")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/repo = %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Shards != 2 || agg.Reached != 2 || len(agg.Unreachable) != 0 {
		t.Fatalf("aggregate envelope after heal = %+v", agg)
	}
	if len(agg.Subjects) != len(subjects)+len(burstSubs) {
		t.Fatalf("aggregate lists %d subjects, want %d", len(agg.Subjects), len(subjects)+len(burstSubs))
	}

	// Two supervisors, one topology: the maps stay byte-identical and
	// the heal counters account for exactly one failover and one
	// evacuation across the fleet.
	healWaitFor(t, 10*time.Second, "all nodes to converge on the final map", func() bool {
		var first []byte
		for _, n := range live {
			code, data := shardGet(t, n.base, "/v1/shard/map")
			if code != http.StatusOK {
				return false
			}
			if first == nil {
				first = data
				continue
			}
			if string(first) != string(data) {
				return false
			}
		}
		return true
	})
	failovers := a.metrics.Snapshot()["shard_failovers_total"] + b.metrics.Snapshot()["shard_failovers_total"]
	evacs := a.metrics.Snapshot()["shard_evacuations_total"] + b.metrics.Snapshot()["shard_evacuations_total"]
	if failovers < 1 || failovers > 2 {
		t.Errorf("shard_failovers_total across supervisors = %d, want 1 (or 2 when both raced the same deterministic map)", failovers)
	}
	if evacs != 1 {
		t.Errorf("shard_evacuations_total across supervisors = %d, want 1", evacs)
	}

	// Tear everything down and verify nothing leaked.
	for _, n := range nodes {
		n.stop()
		n.repo.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	shardHTTPClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after heal drill\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealEndpointAndHealthz pins the manual trigger and the
// supervisor's healthz block: POST /v1/shard/heal answers 404 supervise
// on an unsupervised node, runs one probe-and-heal pass on a supervised
// one, and /healthz publishes the supervisor state.
func TestHealEndpointAndHealthz(t *testing.T) {
	m, err := shard.NewMap(1, 16, []shard.Shard{{ID: "a", Addr: "http://self.example:7001"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repo.Open(t.TempDir(), repo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp.Close() })

	// Unsupervised: the endpoint stays dark with a machine-readable code.
	plain := New(Config{Repo: rp, Shard: newShardRouter(t, m, "a")})
	rec := repoRequest(t, plain.Handler(), http.MethodPost, "/v1/shard/heal", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unsupervised heal = %d, want 404", rec.Code)
	}
	var envelope struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Code != "supervise" {
		t.Errorf("unsupervised heal envelope = %+v, %v", envelope, err)
	}

	// Supervised over a single-shard map: a pass checks zero peers and
	// heals nothing — the report is still well-formed.
	sup := New(Config{Repo: rp, Shard: newShardRouter(t, m, "a"), ShardSupervise: true})
	rec = repoRequest(t, sup.Handler(), http.MethodPost, "/v1/shard/heal", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("supervised heal = %d: %s", rec.Code, rec.Body.String())
	}
	var report struct {
		Checked int `json:"checked"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil || report.Checked != 0 {
		t.Errorf("heal report = %s, %v", rec.Body.String(), err)
	}

	rec = repoRequest(t, sup.Handler(), http.MethodGet, "/healthz", nil)
	var doc struct {
		Shard struct {
			Supervisor *struct {
				ProbeInterval string `json:"probeInterval"`
				FailMisses    int    `json:"failMisses"`
			} `json:"supervisor"`
		} `json:"shard"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Shard.Supervisor == nil || doc.Shard.Supervisor.FailMisses != 3 {
		t.Errorf("healthz supervisor block = %+v", doc.Shard.Supervisor)
	}
}

// TestHealEpochSwapMidProxy pins router behavior when the shard-map
// epoch changes between the ownership decision and the proxy dial: the
// in-flight request completes under the decision it was admitted with,
// and the very next request routes under the new map.
func TestHealEpochSwapMidProxy(t *testing.T) {
	lnA := shardListen(t, "127.0.0.1:0")
	aAddr := lnA.Addr().String()
	lnA.Close()
	lnB := shardListen(t, "127.0.0.1:0")
	bAddr := lnB.Addr().String()
	lnB.Close()

	m1, err := shard.NewMap(1, 16, []shard.Shard{
		{ID: "a", Addr: "http://" + aAddr},
		{ID: "b", Addr: "http://" + bAddr},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(t.TempDir(), "map.json")
	if err := shard.SaveMap(mapPath, m1); err != nil {
		t.Fatal(err)
	}
	a := startShardNode(t, "a", aAddr, t.TempDir(), mapPath, true)
	defer a.stop()

	subject := subjectOwnedBy(t, m1, "b", 77)

	// Stub owner b: the first (and only) proxied request parks on a gate
	// so the test can swap the map underneath it.
	var entered sync.Once
	enteredCh := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseStub := func() { releaseOnce.Do(func() { close(release) }) }
	var stubCalls atomic.Int64
	lnStub := shardListen(t, bAddr)
	stopStub := shardServeOn(lnStub, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stubCalls.Add(1)
		entered.Do(func() { close(enteredCh) })
		<-release
		w.Write([]byte("owner-answer-under-epoch-1"))
	}))
	defer stopStub()
	defer releaseStub()

	// In-flight: a read for b's subject enters a's proxy and blocks at
	// the stub.
	type answer struct {
		code int
		body string
		err  error
	}
	resc := make(chan answer, 1)
	go func() {
		resp, err := http.Get(a.base + "/v1/repo/subjects/" + subject + "/versions")
		if err != nil {
			resc <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		resc <- answer{code: resp.StatusCode, body: string(data), err: err}
	}()
	<-enteredCh

	// Epoch 2 removes shard b: the subject's owner flips to a while the
	// proxied request is still in flight.
	m2, err := shard.NewMap(2, 16, []shard.Shard{{ID: "a", Addr: "http://" + aAddr}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2data, _ := m2.Encode()
	req, _ := http.NewRequest(http.MethodPut, a.base+"/v1/shard/map", strings.NewReader(string(m2data)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-flight map install = %d", resp.StatusCode)
	}
	if got := a.server.shard.Epoch(); got != 2 {
		t.Fatalf("router epoch %d after install, want 2", got)
	}

	// Release the stub: the in-flight request completes under the
	// epoch-1 decision it was admitted with.
	releaseStub()
	got := <-resc
	if got.err != nil || got.code != http.StatusOK || got.body != "owner-answer-under-epoch-1" {
		t.Fatalf("in-flight proxied answer = %+v", got)
	}

	// The next request routes under epoch 2: local verdict (404 from an
	// empty repo), never the stub again.
	code, data := shardGet(t, a.base, "/v1/repo/subjects/"+subject+"/versions")
	if code != http.StatusNotFound {
		t.Fatalf("post-swap read = %d (%s), want a local 404 under the new map", code, data)
	}
	if n := stubCalls.Load(); n != 1 {
		t.Fatalf("stub owner saw %d calls, want exactly the in-flight one", n)
	}
}
