package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/go-ccts/ccts/internal/contentaddr"
)

// BlobDir is the directory, under a store's root, that holds its blobs.
const BlobDir = "blobs"

// ErrCorrupt reports a blob whose bytes no longer hash to its address.
var ErrCorrupt = errors.New("blob corrupt on disk")

// Blobs is a content-addressed blob store: each blob lives at
// blobs/<p>/<sha256> (p = the first two hex digits, so no directory
// holds every blob) and is written with WriteFile, so a blob that
// exists is whole and durable. Methods are safe for concurrent use; a
// caller that keeps counters over Put and Remove serializes them
// itself.
type Blobs struct {
	root string
	// Wrap, when non-nil, interposes on every blob write (a
	// fault-injection seam for tests). Set it before first use.
	Wrap func(io.Writer) io.Writer
}

// OpenBlobs opens (creating if needed) the blob store under dir.
func OpenBlobs(dir string) (*Blobs, error) {
	root := filepath.Join(dir, BlobDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("creating blob store %s: %w", root, err)
	}
	return &Blobs{root: root}, nil
}

// valid reports whether sha is a well-formed address: 64 lower-case
// hex digits. Anything else could name a path outside the store.
func valid(sha string) bool {
	if len(sha) != 64 {
		return false
	}
	for i := 0; i < len(sha); i++ {
		if c := sha[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (b *Blobs) path(sha string) string {
	return filepath.Join(b.root, sha[:2], sha)
}

// Put stores data under its SHA-256 address and returns the address.
// created is false when the blob was already resident (deduplication).
func (b *Blobs) Put(data []byte) (sha string, created bool, err error) {
	sha = contentaddr.BlobSum(data)
	if b.Has(sha) {
		return sha, false, nil
	}
	path := b.path(sha)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", false, fmt.Errorf("creating blob directory: %w", err)
	}
	if err := WriteFile(path, data, b.Wrap); err != nil {
		return "", false, err
	}
	return sha, true, nil
}

// Get returns the bytes stored under sha, verified against the
// address. A malformed or absent address answers an error matching
// fs.ErrNotExist; bytes that no longer match answer ErrCorrupt.
func (b *Blobs) Get(sha string) ([]byte, error) {
	if !valid(sha) {
		return nil, fmt.Errorf("blob %q: %w", sha, fs.ErrNotExist)
	}
	data, err := os.ReadFile(b.path(sha))
	if err != nil {
		return nil, fmt.Errorf("reading blob %s: %w", sha, err)
	}
	if contentaddr.BlobSum(data) != sha {
		return nil, fmt.Errorf("blob %s: %w", sha, ErrCorrupt)
	}
	return data, nil
}

// Has reports whether a blob is resident.
func (b *Blobs) Has(sha string) bool {
	if !valid(sha) {
		return false
	}
	_, err := os.Stat(b.path(sha))
	return err == nil
}

// Remove deletes one blob; an absent blob is not an error.
func (b *Blobs) Remove(sha string) error {
	if !valid(sha) {
		return nil
	}
	if err := os.Remove(b.path(sha)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("removing blob %s: %w", sha, err)
	}
	return nil
}

// Walk calls fn for every resident blob with its address and size.
// fn may Remove the blob it is given.
func (b *Blobs) Walk(fn func(sha string, size int64) error) error {
	fans, err := os.ReadDir(b.root)
	if err != nil {
		return fmt.Errorf("scanning blob store: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(b.root, fan.Name()))
		if err != nil {
			return fmt.Errorf("scanning blob store: %w", err)
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				return fmt.Errorf("scanning blob store: %w", err)
			}
			if err := fn(e.Name(), info.Size()); err != nil {
				return err
			}
		}
	}
	return nil
}
