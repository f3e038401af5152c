// Package wal is the framed write-ahead log behind the daemon's durable
// state: the design registry (internal/store) and the job queue
// (internal/jobs) each keep one. A log lives in a directory as two
// files, each a header line followed by framed records:
//
//	<header>\n
//	<head> <nbytes>\n
//	<nbytes of body>\n
//	...
//
// The log file takes appends and is replayed over the snapshot on Open;
// the snapshot holds the caller's whole state as of the last
// compaction. Heads and bodies are opaque here: callers put their record
// kind, keys and checksum in the head and verify them in the apply
// callback Open takes. The explicit length keeps bodies binary-safe.
//
// Replay heals a torn trailing log record, the state a crash
// mid-append leaves, by truncating the log back to the last whole
// record. A record is torn when the file ends inside its head line or
// its body, or when its length claims more bytes than the file has
// left; that last check also bounds what replay allocates. The same
// damage in the snapshot, a malformed head, a missing trailer, a bad
// header line or an error from apply fails Open.
//
// An append that fails part-way is rolled back: the log is truncated to
// its last whole record, or closed when even that fails, so no later
// append lands behind a torn record. An append that takes the log past
// its byte cap compacts it: the caller's snapshot records are written
// to a temporary file, synced, renamed over the snapshot, and the log is
// truncated back to its header. Appends are not fsynced: the state
// survives the process's death (the page cache persists process exit),
// not a power cut mid-write.
//
// Errors name the file involved but not the calling package; callers
// add their own prefix.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Record is one framed record. Head is a single line without the
// newline; the framing adds the body length after it.
type Record struct {
	Head string
	Body string
}

// Files names a log's two files, relative to its directory, and the
// header line each starts with.
type Files struct {
	Log, LogHeader   string
	Snap, SnapHeader string
}

// errClosed is returned by appends to a closed log.
var errClosed = errors.New("log closed")

// Log is an open log. Its methods are safe for concurrent use; appends
// and compactions serialize on its lock.
type Log struct {
	mu       sync.Mutex
	files    Files // paths joined with the directory
	maxBytes int64
	f        *os.File // nil once closed
	size     atomic.Int64
	compacts atomic.Uint64
}

// Open creates dir if needed and replays its snapshot and then its log
// through apply, in write order; the log file is created with its
// header when absent. A log whose size passes maxBytes on an append is
// compacted.
func Open(dir string, files Files, maxBytes int64, apply func(Record) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files.Log = filepath.Join(dir, files.Log)
	files.Snap = filepath.Join(dir, files.Snap)
	if err := replaySnapshot(files.Snap, files.SnapHeader, apply); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(files.Log, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{files: files, maxBytes: maxBytes, f: f}
	if err := l.replayLog(apply); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replaySnapshot replays a snapshot file, if there is one. Snapshots
// are installed whole, so any damage is an error.
func replaySnapshot(path, header string, apply func(Record) error) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if _, err := replay(f, st.Size(), header, apply); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// replayLog replays the open log file, writing its header first when
// the file is empty, heals a torn tail, and leaves the append cursor at
// the end.
func (l *Log) replayLog(apply func(Record) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		n, err := l.f.WriteString(l.files.LogHeader + "\n")
		if err != nil {
			return fmt.Errorf("writing header: %w", err)
		}
		size = int64(n)
	}
	l.size.Store(size)
	good, err := replay(io.NewSectionReader(l.f, 0, size), size, l.files.LogHeader, apply)
	if _, torn := err.(tornError); torn {
		return l.truncateLocked(good)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", l.files.Log, err)
	}
	_, err = l.f.Seek(size, io.SeekStart)
	return err
}

// tornError marks damage a crash mid-append leaves at the end of a
// file.
type tornError string

func (e tornError) Error() string { return string(e) }

// replay feeds every record of a framed file holding size bytes to
// apply and returns the offset just past the last whole record. A
// tornError means the file ends inside a record.
func replay(r io.Reader, size int64, header string, apply func(Record) error) (good int64, err error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err == io.EOF {
		return 0, fmt.Errorf("missing header")
	}
	if err != nil {
		return 0, err
	}
	if line[:len(line)-1] != header {
		return 0, fmt.Errorf("bad header %q (want %q)", strings.TrimSpace(line), header)
	}
	good = int64(len(line))
	var buf []byte // reused: bodies reach apply as strings
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			if line == "" {
				return good, nil
			}
			return good, tornError("torn record head")
		}
		if err != nil {
			return good, err
		}
		head, n, ok := parseHead(line)
		if !ok {
			return good, fmt.Errorf("malformed record header %q", strings.TrimSpace(line))
		}
		// The body and its trailing newline must fit in what is left;
		// written this way the comparison cannot overflow.
		if n > size-good-int64(len(line))-1 {
			return good, tornError(fmt.Sprintf("record %q claims %d bytes past the end of the file", head, n))
		}
		if int64(cap(buf)) < n+1 {
			buf = make([]byte, n+1)
		}
		buf = buf[:n+1]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return good, tornError("torn record body")
			}
			return good, err
		}
		if buf[n] != '\n' {
			return good, fmt.Errorf("record %q missing trailer", head)
		}
		if err := apply(Record{Head: head, Body: string(buf[:n])}); err != nil {
			return good, err
		}
		good += int64(len(line)) + n + 1
	}
}

// parseHead splits a record's head line into the head and the body
// length after its last space.
func parseHead(line string) (head string, n int64, ok bool) {
	line = line[:len(line)-1]
	i := strings.LastIndexByte(line, ' ')
	if i <= 0 {
		return "", 0, false
	}
	for _, c := range []byte(line[i+1:]) {
		if c < '0' || c > '9' {
			return "", 0, false
		}
	}
	n, err := strconv.ParseInt(line[i+1:], 10, 64)
	return line[:i], n, err == nil
}

// appendFrame appends rec's framing to b.
func appendFrame(b []byte, rec Record) []byte {
	b = append(b, rec.Head...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(rec.Body)), 10)
	b = append(b, '\n')
	b = append(b, rec.Body...)
	return append(b, '\n')
}

// Append writes rec to the log. When the log then exceeds its byte cap
// it is compacted: snapshot, called under the log's lock, returns the
// records of the caller's whole state with rec already applied, and
// they replace both files' contents.
func (l *Log) Append(rec Record, snapshot func() []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	frame := appendFrame(nil, rec)
	if _, err := l.f.Write(frame); err != nil {
		// Cut off whatever part of the record reached the file, so the
		// next append starts on a record boundary.
		if rerr := l.truncateLocked(l.size.Load()); rerr != nil {
			l.f.Close()
			l.f = nil
			return fmt.Errorf("%w; rolling back: %v; log closed", err, rerr)
		}
		return err
	}
	if l.size.Add(int64(len(frame))) > l.maxBytes {
		return l.compactLocked(snapshot())
	}
	return nil
}

// truncateLocked cuts the log file to n bytes and moves the append
// cursor there. Caller holds mu.
func (l *Log) truncateLocked(n int64) error {
	if err := l.f.Truncate(n); err != nil {
		return err
	}
	if _, err := l.f.Seek(n, io.SeekStart); err != nil {
		return err
	}
	l.size.Store(n)
	return nil
}

// compactLocked installs recs as the snapshot and truncates the log to
// its header. Caller holds mu.
func (l *Log) compactLocked(recs []Record) error {
	tmp := l.files.Snap + ".tmp"
	if err := writeSnapshot(tmp, l.files.SnapHeader, recs); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, l.files.Snap); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("installing snapshot: %w", err)
	}
	if err := l.truncateLocked(int64(len(l.files.LogHeader) + 1)); err != nil {
		return fmt.Errorf("truncating log: %w", err)
	}
	l.compacts.Add(1)
	return nil
}

// writeSnapshot writes a complete snapshot file and syncs it.
func writeSnapshot(path, header string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// bufio.Writer errors are sticky, so Flush reports any failed write.
	bw := bufio.NewWriter(f)
	bw.WriteString(header + "\n")
	var frame []byte
	for _, rec := range recs {
		frame = appendFrame(frame[:0], rec)
		bw.Write(frame)
	}
	err = bw.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Size returns the log file's current size in bytes.
func (l *Log) Size() int64 { return l.size.Load() }

// Compactions returns how many compactions have completed.
func (l *Log) Compactions() uint64 { return l.compacts.Load() }

// Close closes the log file; later appends fail. Closing twice is
// harmless.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
