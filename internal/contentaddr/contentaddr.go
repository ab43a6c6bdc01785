// Package contentaddr is the single definition of content addressing
// shared by the serving subsystem's schema cache and the persistent
// schema repository. Both key their storage by SHA-256 over a
// canonicalized XMI document plus an options fingerprint; keeping the
// canonicalization and the hash construction in one place guarantees
// the two layers can never drift apart — a repository version and a
// cache entry computed from the same request always agree on the
// address.
package contentaddr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
)

// Canonicalize normalizes an XMI document for content addressing:
// CRLF/CR line endings become LF and trailing whitespace-only lines are
// trimmed, so the same model saved by tools with different line-ending
// conventions resolves to the same address. The element structure is
// not reformatted — two semantically equal but differently indented
// documents are distinct inputs, which is the safe direction for
// content addressing (false misses cost a regeneration; false hits
// would serve the wrong schemas).
func Canonicalize(xmi []byte) []byte {
	out := bytes.ReplaceAll(xmi, []byte("\r\n"), []byte("\n"))
	out = bytes.ReplaceAll(out, []byte{'\r'}, []byte{'\n'})
	return bytes.TrimRight(out, " \t\n")
}

// Key derives the content address of a request: SHA-256 over the
// canonicalized XMI bytes and the caller's options fingerprint
// (library, root, style, annotation flags — everything that changes
// the output). The document is length-prefixed into the hash so
// distinct (document, fingerprint) pairs can never collide by
// concatenation.
func Key(xmi []byte, fingerprint string) string {
	h := sha256.New()
	canon := Canonicalize(xmi)
	var lenbuf [8]byte
	putUint64(lenbuf[:], uint64(len(canon)))
	h.Write(lenbuf[:])
	h.Write(canon)
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// BlobSum is the content address of a raw blob: plain SHA-256 of its
// bytes, hex-encoded. The blob store (internal/durable) files every
// blob of the repository and the job queue under this address, so
// unchanged artifacts are shared across versions and jobs.
func BlobSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
