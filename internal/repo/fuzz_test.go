package repo

import (
	"bytes"
	"testing"

	"github.com/go-ccts/ccts/internal/durable"
)

// FuzzWALDecode feeds arbitrary bytes through the WAL scanner and the
// replication frame decoder — the two paths that parse untrusted input
// after a crash (torn tails) or off the replication wire (corrupt,
// truncated or reordered frames). Invariants: no panic, the valid
// prefix never exceeds the input, decoded records are strictly
// contiguous, and rescanning the valid prefix is a fixed point.
func FuzzWALDecode(f *testing.F) {
	// A healthy two-record log.
	rec1, _ := durable.EncodeFrame(&walRecord{Seq: 1, Op: opPublish, Subject: "s", Policy: PolicyNone,
		Version: &Version{Number: 1, InputSHA256: "aa", Files: []FileRef{{Name: "a.xsd", SHA256: "bb"}}}})
	rec2, _ := durable.EncodeFrame(&walRecord{Seq: 2, Op: opDelete, Subject: "s", Number: 1})
	valid := append(append([]byte{}, rec1...), rec2...)
	f.Add(valid)
	// Truncated mid-record (torn tail).
	f.Add(valid[:len(valid)-7])
	// Corrupt CRC on the second record.
	flipped := append([]byte{}, valid...)
	flipped[len(rec1)] ^= 0xff
	f.Add(flipped)
	// Reordered sequence numbers (2 before 1).
	f.Add(append(append([]byte{}, rec2...), rec1...))
	// Repeated sequence number.
	f.Add(append(append([]byte{}, rec1...), rec1...))
	// Structural garbage.
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte("not a wal\n\x00\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen := durable.Scan(data, decodeLine)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0, %d]", goodLen, len(data))
		}
		for i, rec := range recs {
			if rec.Seq <= 0 || rec.Rec.Seq != rec.Seq {
				t.Fatalf("record %d has non-positive seq %d", i, rec.Seq)
			}
			if i > 0 && rec.Seq != recs[i-1].Seq+1 {
				t.Fatalf("records %d,%d break contiguity: %d then %d — out-of-order frames must never apply",
					i-1, i, recs[i-1].Seq, rec.Seq)
			}
		}
		// The valid prefix is a fixed point: rescanning it reproduces
		// exactly the same records.
		again, againLen := durable.Scan(data[:goodLen], decodeLine)
		if againLen != goodLen || len(again) != len(recs) {
			t.Fatalf("rescan of valid prefix: %d records/%d bytes, want %d/%d",
				len(again), againLen, len(recs), goodLen)
		}
		for i := range recs {
			if again[i].Seq != recs[i].Seq || again[i].Rec.Op != recs[i].Rec.Op || again[i].Rec.Subject != recs[i].Rec.Subject {
				t.Fatalf("rescan record %d differs: %+v vs %+v", i, again[i], recs[i])
			}
		}
		// The replication frame decoder sees single lines from the same
		// byte stream; it must never panic either.
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if fr, err := DecodeFrame(line); err == nil && fr.Seq <= 0 {
				t.Fatalf("DecodeFrame accepted non-positive seq %d", fr.Seq)
			}
		}
	})
}
