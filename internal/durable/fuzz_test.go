package durable_test

import (
	"bytes"
	"testing"

	"github.com/go-ccts/ccts/internal/durable"
	"github.com/go-ccts/ccts/internal/repo"
)

// FuzzWALDecode feeds arbitrary bytes through the shared log scanner
// and the repository's replication frame decoder — the paths that
// parse untrusted input after a crash (torn tails) or off the
// replication wire (corrupt, truncated or reordered frames). The seeds
// are logs of both record families that persist through the scanner:
// repository records (publish, delete) and job-queue records (submit,
// item_done, item_failed, done, cancel, expire). Invariants: no panic,
// the valid prefix never exceeds the input, recovered records are
// strictly contiguous and their lines tile the prefix, and rescanning
// the valid prefix is a fixed point.
func FuzzWALDecode(f *testing.F) {
	const sha = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	enc := func(v any) []byte {
		line, err := durable.EncodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		return line
	}
	join := func(lines ...[]byte) []byte { return bytes.Join(lines, nil) }
	type m = map[string]any

	repo1 := enc(m{"seq": 1, "op": "publish", "subject": "s", "policy": "none",
		"version": m{"number": 1, "inputSha256": sha, "files": []m{{"name": "a.xsd", "sha256": sha}}}})
	repo2 := enc(m{"seq": 2, "op": "delete", "subject": "s", "number": 1})
	repoLog := join(repo1, repo2)

	jobsLog := join(
		enc(m{"seq": 1, "op": "submit", "job": "j000001", "jobSeq": 1, "at": 1,
			"spec": m{"items": []m{{"name": "a", "modelSHA": sha, "library": "EB005", "target": "xsd"}}}}),
		enc(m{"seq": 2, "op": "item_done", "job": "j000001", "item": 1, "sha": sha, "ns": 5}),
		enc(m{"seq": 3, "op": "item_failed", "job": "j000001", "item": 2, "msg": "boom"}),
		enc(m{"seq": 4, "op": "done", "job": "j000001", "state": "failed", "at": 2}),
		enc(m{"seq": 5, "op": "cancel", "job": "j000002"}),
		enc(m{"seq": 6, "op": "expire", "job": "j000001"}),
	)

	for _, seed := range [][]byte{
		repoLog,
		repoLog[:len(repoLog)-7], // torn tail
		join(repo2, repo1),       // reordered sequence numbers
		join(repo1, repo1),       // repeated sequence number
		jobsLog,
		jobsLog[:len(jobsLog)/2],      // torn mid-record
		join(jobsLog, repo1),          // sequence restart
		[]byte("00000000 {}\n"),       // CRC of the wrong payload
		[]byte("not a wal\n\x00\xff"), // structural garbage
		{},
	} {
		f.Add(seed)
	}
	// Corrupt CRC on the second repository record.
	flipped := bytes.Clone(repoLog)
	flipped[len(repo1)] ^= 0xff
	f.Add(flipped)

	type header struct {
		Seq int64  `json:"seq"`
		Op  string `json:"op"`
	}
	decode := func(line []byte) (header, int64, bool) {
		var h header
		if !durable.DecodeFrame(line, &h) || h.Seq <= 0 || h.Op == "" {
			return header{}, 0, false
		}
		return h, h.Seq, true
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, goodLen := durable.Scan(data, decode)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0, %d]", goodLen, len(data))
		}
		off := 0
		for i, e := range entries {
			if e.Seq <= 0 || e.Rec.Seq != e.Seq {
				t.Fatalf("record %d has seq %d (record says %d)", i, e.Seq, e.Rec.Seq)
			}
			if i > 0 && e.Seq != entries[i-1].Seq+1 {
				t.Fatalf("records %d,%d break contiguity: %d then %d — out-of-order frames must never apply",
					i-1, i, entries[i-1].Seq, e.Seq)
			}
			if !bytes.Equal(e.Line, data[off:off+len(e.Line)]) || e.Line[len(e.Line)-1] != '\n' {
				t.Fatalf("record %d line does not tile the input at offset %d", i, off)
			}
			off += len(e.Line)
		}
		if off != goodLen {
			t.Fatalf("record lines cover %d bytes, goodLen %d", off, goodLen)
		}
		// The valid prefix is a fixed point: rescanning it reproduces
		// exactly the same records.
		again, againLen := durable.Scan(data[:goodLen], decode)
		if againLen != goodLen || len(again) != len(entries) {
			t.Fatalf("rescan of valid prefix: %d records/%d bytes, want %d/%d",
				len(again), againLen, len(entries), goodLen)
		}
		for i := range entries {
			if again[i].Rec != entries[i].Rec {
				t.Fatalf("rescan record %d differs: %+v vs %+v", i, again[i].Rec, entries[i].Rec)
			}
		}
		// The replication frame decoder sees single lines from the same
		// byte stream; it must never panic either.
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if fr, err := repo.DecodeFrame(line); err == nil && fr.Seq <= 0 {
				t.Fatalf("DecodeFrame accepted non-positive seq %d", fr.Seq)
			}
		}
	})
}
