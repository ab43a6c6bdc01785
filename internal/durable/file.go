// Package durable is the storage substrate under every persistent
// store of the module: an atomic file writer, a content-addressed blob
// store and a CRC-framed, fsync'd append-only log. The schema
// repository (internal/repo), the batch job queue (internal/jobs), the
// shard map (internal/shard) and the schema writers of the root
// package all persist through it, so they share one crash-recovery
// discipline: data is fsync'd before anything that refers to it, a
// replaced file is either wholly old or wholly new, and a log torn by a
// crash reopens at its longest valid prefix.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// tempMarker is part of every temp file name WriteFile creates;
// SweepTemp removes files carrying it.
const tempMarker = ".tmp"

// WriteFile replaces path with data atomically and durably: the bytes
// go to a "<base>.tmp*" file in the same directory, which is fsync'd,
// renamed onto path, and the directory is fsync'd so the rename itself
// survives power loss. A crash leaves either the old file or the new
// one, never a torn mix; on any failure the temp file is removed.
// wrap, when non-nil, interposes on the data stream (a fault-injection
// seam for tests). Errors name path.
func WriteFile(path string, data []byte, wrap func(io.Writer) io.Writer) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+tempMarker+"*")
	if err != nil {
		return fmt.Errorf("creating temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("renaming %s into place: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("syncing directory of %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so entries renamed into it are durable.
// Windows cannot fsync a directory handle (NTFS journals the rename
// itself), and filesystems that cannot report that as unsupported;
// only those answers are ignored.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	err = d.Sync()
	if errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// SweepTemp removes the temp files WriteFile abandons when a crash
// interrupts it between create and rename, anywhere under dir.
func SweepTemp(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), tempMarker) {
			return os.Remove(path)
		}
		return nil
	})
}
