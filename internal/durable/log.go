package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// A log frame is one line: the CRC-32 (IEEE) of the JSON payload as
// eight hex digits, a space, the payload and a newline.
//
//	"%08x <json>\n"
//
// Every record type framed this way carries a contiguous sequence
// number; the log's recovery rules are stated in terms of it.

// EncodeFrame marshals v and frames it as one log line, newline
// included.
func EncodeFrame(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding log record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	return append(line, '\n'), nil
}

// DecodeFrame checks one frame's CRC (line without its newline) and
// unmarshals its payload into v. It reports whether the frame was
// intact and well-formed JSON; field validation is the caller's.
func DecodeFrame(line []byte, v any) bool {
	if len(line) < 10 || line[8] != ' ' {
		return false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return false
	}
	return json.Unmarshal(payload, v) == nil
}

// Entry is one record recovered from a log.
type Entry[R any] struct {
	Seq int64
	Rec R
	// Line is the frame as stored, newline included.
	Line []byte
}

// Decoder parses and validates one frame (without its newline),
// returning the record and its sequence number; ok is false for a
// frame that is corrupt or invalid.
type Decoder[R any] func(line []byte) (rec R, seq int64, ok bool)

// Scan decodes the longest valid prefix of a log image: complete
// lines the decoder accepts, with contiguous sequence numbers. It
// returns the entries and the byte length of that prefix; everything
// after it is a torn or corrupt tail.
func Scan[R any](data []byte, decode Decoder[R]) (entries []Entry[R], goodLen int) {
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail
		}
		rec, seq, ok := decode(data[off : off+nl])
		if !ok {
			break
		}
		if n := len(entries); n > 0 && seq != entries[n-1].Seq+1 {
			break
		}
		entries = append(entries, Entry[R]{Seq: seq, Rec: rec, Line: data[off : off+nl+1]})
		off += nl + 1
		goodLen = off
	}
	return entries, goodLen
}

// ErrBroken reports a log whose failed append could not be rolled
// back; it refuses appends until Reset or reopen.
var ErrBroken = errors.New("log unusable after a failed append")

// Log is an append-only file of frames ahead of a checkpoint document
// the owner keeps elsewhere: records up to the checkpoint's sequence
// number are absorbed by it, the log holds the ones after. A Log is
// not safe for concurrent use; its owner serializes calls.
type Log struct {
	f    *os.File
	path string
	size int64 // bytes of whole, fsync'd frames
	seq  int64 // sequence number of the last record (or the checkpoint's)
	bad  bool
	// Wrap, when non-nil, interposes on every append (a fault-injection
	// seam for tests). When the writer it returns also has a Sync
	// method, Append calls that in place of the file's fsync.
	Wrap func(io.Writer) io.Writer
}

// OpenLog opens (creating if needed) the log at path whose owner's
// checkpoint covers records through checkpointSeq, and returns the
// records to replay on top of the checkpoint. Records at or below
// checkpointSeq are skipped (a crash between a checkpoint and the Reset
// that follows it leaves them behind). When the first record after the
// checkpoint does not continue its sequence, records were lost: the
// whole log is discarded so the owner serves the checkpoint rather
// than a state with holes. A torn or corrupt tail is truncated away, so
// appends resume on a frame boundary; a log with nothing to replay is
// emptied, so the next record never follows absorbed ones with a gap.
func OpenLog[R any](path string, checkpointSeq int64, decode Decoder[R]) (*Log, []Entry[R], error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	entries, goodLen := Scan(data, decode)
	var replay []Entry[R]
	for _, e := range entries {
		if e.Seq > checkpointSeq {
			replay = append(replay, e)
		}
	}
	if len(replay) == 0 || replay[0].Seq != checkpointSeq+1 {
		// Nothing beyond the checkpoint, or a gap after it: the log
		// holds nothing to replay and is emptied.
		replay, goodLen = nil, 0
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening %s: %w", path, err)
	}
	if goodLen < len(data) {
		if err := f.Truncate(int64(goodLen)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("truncating torn tail of %s: %w", path, err)
		}
	}
	l := &Log{f: f, path: path, size: int64(goodLen), seq: checkpointSeq}
	if n := len(replay); n > 0 {
		l.seq = replay[n-1].Seq
	}
	return l, replay, nil
}

// Seq returns the sequence number of the last committed record; the
// next Append must carry Seq()+1.
func (l *Log) Seq() int64 { return l.seq }

// Broken reports whether a failed append left the log unusable.
func (l *Log) Broken() bool { return l.bad }

// Append writes one frame carrying sequence number Seq()+1 and fsyncs
// it. On failure the log is truncated back to its last whole frame, so
// the failed record leaves no trace; if even that fails the log is
// marked broken and refuses appends with ErrBroken.
func (l *Log) Append(line []byte) error {
	if l.bad {
		return ErrBroken
	}
	var w io.Writer = l.f
	if l.Wrap != nil {
		w = l.Wrap(l.f)
	}
	_, err := w.Write(line)
	if err != nil {
		err = fmt.Errorf("appending to %s: %w", l.path, err)
	} else {
		sync := l.f.Sync
		if s, ok := w.(interface{ Sync() error }); ok {
			sync = s.Sync
		}
		if serr := sync(); serr != nil {
			err = fmt.Errorf("syncing %s: %w", l.path, serr)
		}
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.bad = true
		}
		return err
	}
	l.size += int64(len(line))
	l.seq++
	return nil
}

// Reset empties the log once a checkpoint covering records through seq
// is durable; the next Append carries seq+1. Emptying also repairs a
// broken log.
func (l *Log) Reset(seq int64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("emptying %s: %w", l.path, err)
	}
	l.size, l.seq, l.bad = 0, seq, false
	return nil
}

// Close releases the file; the log must not be used afterwards.
func (l *Log) Close() error { return l.f.Close() }
