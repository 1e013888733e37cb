package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
)

// Reader is the unified read handle over every serialization backend:
// FormatVersion 1 JSON, FormatVersion 2 in the heap, and FormatVersion
// 2 mmap-backed. Open (paths) and OpenBytes (buffers) are the only
// entry points; they sniff gzip and the format internally, so callers
// never dispatch on file contents themselves.
//
// A Reader whose Format is FormatVersion2 is always a *StoreV2 and may
// be asserted to reach the zero-decode accessors (IndexLists,
// Fragments, the lazy per-record decoders). Close releases the backing
// resources — for an mmap-backed reader the final release unmaps the
// file, after which nothing materialized from it may be touched; the
// serving layer retains the Region across snapshot swaps for exactly
// this reason.
type Reader interface {
	// Database materializes (and memoizes) the full database.
	Database() (*core.Database, error)
	// Format reports the serialization format: FormatVersion (1) or
	// FormatVersion2 (2).
	Format() int
	// Mapped reports whether reads go through a file mapping.
	Mapped() bool
	// Region returns the refcounted byte range backing the reader, nil
	// for format-1 readers (a materialized v1 database owns its memory).
	Region() *Region
	// Close releases the opener's reference; idempotent.
	Close() error
}

type mmapMode int

const (
	mmapAuto mmapMode = iota // map v2 files when the platform supports it
	mmapOn                   // require a mapping, fail otherwise
	mmapOff                  // always read into the heap
)

type openConfig struct {
	mmap   mmapMode
	format string // "", "v1", "v2": required format, "" accepts any
}

// OpenOption configures Open and OpenBytes.
type OpenOption func(*openConfig)

// WithMmap forces the mapping decision: WithMmap(true) fails rather
// than fall back to a heap copy (gzip input, format-1 files and
// unsupported platforms all fail), WithMmap(false) always reads into
// the heap. The default maps exactly when it can: uncompressed
// FormatVersion 2 files on platforms with mmap.
func WithMmap(on bool) OpenOption {
	return func(c *openConfig) {
		if on {
			c.mmap = mmapOn
		} else {
			c.mmap = mmapOff
		}
	}
}

// WithFormat requires the opened file to carry the given format ("v1"
// or "v2") instead of accepting whatever the sniff finds.
func WithFormat(format string) OpenOption {
	return func(c *openConfig) { c.format = format }
}

func openCfg(opts []OpenOption) openConfig {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func (c *openConfig) checkFormat(got int) error {
	switch c.format {
	case "":
		return nil
	case "v1":
		if got != FormatVersion {
			return fmt.Errorf("store: file is format %d, format v1 required", got)
		}
	case "v2":
		if got != FormatVersion2 {
			return fmt.Errorf("store: file is format %d, format v2 required", got)
		}
	default:
		return fmt.Errorf("store: unknown format %q (want v1 or v2)", c.format)
	}
	return nil
}

// Open opens a database file behind the unified Reader interface,
// sniffing gzip compression and the serialization format. Uncompressed
// FormatVersion 2 files are mmap'ed (read-only, shared) where the
// platform supports it, so the page cache — not the Go heap — holds
// the corpus and a file larger than RAM stays serveable; everything
// else is read into the heap. Mapped regions get the
// madvise(MADV_RANDOM) hint: point lookups hop between sections, so
// readahead would drag in pages the workload never touches. See
// WithMmap and WithFormat for the knobs.
func Open(path string, opts ...OpenOption) (Reader, error) {
	cfg := openCfg(opts)
	switch cfg.format {
	case "", "v1", "v2":
	default:
		return nil, fmt.Errorf("store: unknown format %q (want v1 or v2)", cfg.format)
	}

	if strings.HasSuffix(path, ".gz") {
		if cfg.mmap == mmapOn {
			return nil, fmt.Errorf("store: cannot mmap gzip-compressed %s", path)
		}
		data, err := readMaybeGzip(path)
		if err != nil {
			return nil, err
		}
		return openBytes(data, cfg)
	}
	if cfg.mmap == mmapOff || !mmapSupported {
		if cfg.mmap == mmapOn {
			return nil, fmt.Errorf("store: mmap requested but unsupported on this platform")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return openBytes(data, cfg)
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor

	magic := make([]byte, len(v2Magic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if !IsV2(magic[:n]) {
		// Not a v2 file: there is nothing to map (a v1 database is
		// materialized structs, not served bytes).
		if cfg.mmap == mmapOn {
			return nil, fmt.Errorf("store: %s is not a FormatVersion 2 file, cannot mmap", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return openBytes(data, cfg)
	}

	data, munmap, err := mmapFile(f)
	if err != nil {
		if cfg.mmap == mmapOn {
			return nil, err
		}
		heap, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, rerr
		}
		return openBytes(heap, cfg)
	}
	sv, err := OpenV2(data)
	if err != nil {
		munmap(data)
		return nil, err
	}
	sv.region = newMappedRegion(data, munmap)
	// Advisory only: a kernel refusing the hint costs readahead, not
	// correctness.
	_ = madviseRandom(data)
	if err := cfg.checkFormat(FormatVersion2); err != nil {
		sv.Close()
		return nil, err
	}
	return sv, nil
}

// OpenBytes opens an in-memory database buffer behind the Reader
// interface, sniffing gzip compression and the serialization format
// exactly like Open. The caller must not mutate data while the reader
// (or anything materialized from it) is in use.
func OpenBytes(data []byte, opts ...OpenOption) (Reader, error) {
	return openBytes(data, openCfg(opts))
}

func openBytes(data []byte, cfg openConfig) (Reader, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if IsV2(data) {
		if err := cfg.checkFormat(FormatVersion2); err != nil {
			return nil, err
		}
		return OpenV2(data)
	}
	if err := cfg.checkFormat(FormatVersion); err != nil {
		return nil, err
	}
	db, err := decodeV1(data)
	if err != nil {
		return nil, err
	}
	return &v1Reader{db: db}, nil
}

// v1Reader adapts a materialized FormatVersion 1 database to the Reader
// interface. There is no backing byte range to manage: the decoded
// structs own their memory.
type v1Reader struct{ db *core.Database }

func (r *v1Reader) Database() (*core.Database, error) { return r.db, nil }
func (r *v1Reader) Format() int                       { return FormatVersion }
func (r *v1Reader) Mapped() bool                      { return false }
func (r *v1Reader) Region() *Region                   { return nil }
func (r *v1Reader) Close() error                      { return nil }
