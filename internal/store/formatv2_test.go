package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
)

// fullV2 encodes db with every optional section enabled.
func fullV2(t *testing.T, db *core.Database) []byte {
	t.Helper()
	data, err := EncodeV2(db, V2Options{Postings: true, Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixCRC recomputes the header checksum in place, so targeted
// corruption tests reach the validation layers behind it.
func fixCRC(data []byte) {
	binary.LittleEndian.PutUint64(data[24:], uint64(crc32.Checksum(data[v2HeaderSize:], crcTable)))
}

// sectionRange parses the directory and returns the [off, off+len)
// range of the section with the given id, or fails the test.
func sectionRange(t *testing.T, data []byte, id uint32) (int, int) {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < n; i++ {
		ent := data[v2HeaderSize+i*v2DirEntSize:]
		if binary.LittleEndian.Uint32(ent) == id {
			off := int(binary.LittleEndian.Uint64(ent[4:]))
			ln := int(binary.LittleEndian.Uint64(ent[12:]))
			return off, off + ln
		}
	}
	t.Fatalf("section %d not found", id)
	return 0, 0
}

// TestV2RoundTripSeeds is the cross-format property test over generated
// corpora: for 20 seeds, a database pushed through the v2 binary layout
// and materialized back re-encodes (v1 canonical form) byte-identically
// to the original, and EncodeV2 itself is deterministic.
func TestV2RoundTripSeeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := Encode(gt.DB)
		if err != nil {
			t.Fatalf("seed %d: v1 encode: %v", seed, err)
		}
		enc, err := EncodeV2(gt.DB, V2Options{Postings: true, Fragments: true})
		if err != nil {
			t.Fatalf("seed %d: v2 encode: %v", seed, err)
		}
		enc2, err := EncodeV2(gt.DB, V2Options{Postings: true, Fragments: true})
		if err != nil {
			t.Fatalf("seed %d: v2 re-encode: %v", seed, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("seed %d: EncodeV2 not deterministic", seed)
		}
		sv, err := OpenV2(enc)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		if !sv.HasPostings() || !sv.HasFragments() {
			t.Fatalf("seed %d: optional sections missing: postings=%v fragments=%v",
				seed, sv.HasPostings(), sv.HasFragments())
		}
		db2, err := sv.Database()
		if err != nil {
			t.Fatalf("seed %d: materialize: %v", seed, err)
		}
		got, err := Encode(db2)
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("seed %d: v2 round trip changed the canonical encoding (%d vs %d bytes)",
				seed, len(want), len(got))
		}
	}
}

// TestIndexListsEquivalence proves the persisted-postings path the
// serving layer takes: an index over a v2 file's postings spans
// (index.FromLists over IndexLists) dumps identically to one built by
// walking annotations, whether the file is read into the heap or
// mmap-backed.
func TestIndexListsEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 19} {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := index.Build(gt.DB).DebugDump()
		enc := fullV2(t, gt.DB)
		path := filepath.Join(t.TempDir(), "db.v2")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		open := map[string]func() (Reader, error){
			"heap": func() (Reader, error) { return OpenBytes(enc) },
		}
		if mmapExpected() {
			open["mmap"] = func() (Reader, error) { return Open(path, WithMmap(true)) }
		}
		for mode, fn := range open {
			r, err := fn()
			if err != nil {
				t.Fatalf("seed %d %s: open: %v", seed, mode, err)
			}
			sv := r.(*StoreV2)
			db, err := sv.Database()
			if err != nil {
				t.Fatalf("seed %d %s: materialize: %v", seed, mode, err)
			}
			ix, err := index.FromLists(db, sv.IndexLists())
			if err != nil {
				t.Fatalf("seed %d %s: FromLists: %v", seed, mode, err)
			}
			if !bytes.Equal(ix.DebugDump(), want) {
				t.Errorf("seed %d %s: FromLists index dumps differently from Build", seed, mode)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestV2MinimalOptions proves the optional sections really are
// optional: a bare encoding still materializes the same database.
func TestV2MinimalOptions(t *testing.T) {
	db := sampleDB(t)
	enc, err := EncodeV2(db, V2Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := OpenV2(enc)
	if err != nil {
		t.Fatal(err)
	}
	if sv.HasPostings() || sv.HasFragments() {
		t.Fatal("bare encoding reports optional sections")
	}
	if sv.IndexLists() != nil {
		t.Fatal("IndexLists should be nil without a postings section")
	}
	if fr, err := sv.Fragments(); err != nil || fr != nil {
		t.Fatalf("Fragments = %v, %v; want nil, nil without a fragment section", fr, err)
	}
	got, err := sv.Database()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Encode(db)
	enc1, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, enc1) {
		t.Fatal("minimal v2 round trip changed the canonical encoding")
	}
}

// TestV2ZeroDates proves the MinInt64 date sentinel round-trips zero
// times exactly (IsZero on the way out, not 1970 or year-1 artifacts).
func TestV2ZeroDates(t *testing.T) {
	db := sampleDB(t)
	db.Documents()[0].Released = time.Time{}
	db.Documents()[0].Errata[0].Disclosed = time.Time{}
	sv, err := OpenV2(fullV2(t, db))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.Database()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Documents()[0].Released.IsZero() {
		t.Fatalf("Released = %v, want zero", got.Documents()[0].Released)
	}
	if !got.Documents()[0].Errata[0].Disclosed.IsZero() {
		t.Fatalf("Disclosed = %v, want zero", got.Documents()[0].Errata[0].Disclosed)
	}
}

// TestOpenV2Truncation feeds every prefix of a valid v2 file to OpenV2;
// each one must fail with a clean error, never panic, never succeed.
func TestOpenV2Truncation(t *testing.T) {
	enc := fullV2(t, sampleDB(t))
	for i := 0; i < len(enc); i++ {
		if _, err := OpenV2(enc[:i:i]); err == nil {
			t.Fatalf("OpenV2 accepted a %d/%d-byte truncation", i, len(enc))
		}
	}
}

// TestOpenV2BitFlips flips every bit of a valid v2 file one at a time.
// The header checksum covers everything past the header and the header
// fields are each load-bearing, so every flip must produce an error.
func TestOpenV2BitFlips(t *testing.T) {
	enc := fullV2(t, sampleDB(t))
	buf := make([]byte, len(enc))
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(buf, enc)
			buf[i] ^= 1 << bit
			if _, err := OpenV2(buf); err == nil {
				t.Fatalf("OpenV2 accepted a bit flip at byte %d bit %d", i, bit)
			}
		}
	}
}

// TestOpenV2HostileInputs recomputes the checksum after each targeted
// mutation, so validation must catch the damage on its own — bounds,
// enum and structure checks, not just the CRC.
func TestOpenV2HostileInputs(t *testing.T) {
	base := fullV2(t, sampleDB(t))
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), base...)
		b = f(b)
		if len(b) >= v2HeaderSize {
			fixCRC(b)
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic only", []byte(v2Magic)},
		{"wrong magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"version 1", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1)
			return b
		})},
		{"version 3", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 3)
			return b
		})},
		{"file size mismatch", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], uint64(len(b)+1))
			return b
		})},
		{"section count overflow", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 1<<30)
			return b
		})},
		{"section out of bounds", mutate(func(b []byte) []byte {
			// First directory entry: push its length past EOF.
			binary.LittleEndian.PutUint64(b[v2HeaderSize+12:], uint64(len(b)))
			return b
		})},
		{"duplicate section id", mutate(func(b []byte) []byte {
			id := binary.LittleEndian.Uint32(b[v2HeaderSize:])
			binary.LittleEndian.PutUint32(b[v2HeaderSize+v2DirEntSize:], id)
			return b
		})},
		{"erratum enum out of range", mutate(func(b []byte) []byte {
			off, _ := sectionRange(t, b, secErrata)
			b[off+60] = 255 // workaround-category byte
			return b
		})},
		{"erratum string ref out of bounds", mutate(func(b []byte) []byte {
			off, _ := sectionRange(t, b, secErrata)
			binary.LittleEndian.PutUint32(b[off:], 1<<31) // ID ref offset
			return b
		})},
		{"fragment index out of bounds", mutate(func(b []byte) []byte {
			off, _ := sectionRange(t, b, secFragIdx)
			binary.LittleEndian.PutUint32(b[off:], 1<<31) // detail frag offset
			return b
		})},
		{"postings ordinal out of range", mutate(func(b []byte) []byte {
			off, _ := sectionRange(t, b, secOrds)
			binary.LittleEndian.PutUint32(b[off:], 1<<31)
			return b
		})},
	}
	for _, tc := range cases {
		if _, err := OpenV2(tc.data); err == nil {
			t.Errorf("%s: OpenV2 accepted corrupted input", tc.name)
		}
	}
}

// The format-sniffing contract (both serializations read through one
// entry point, garbage rejected) is covered by TestOpenBytesSniffs in
// open_test.go.

// TestSaveFormat exercises explicit and filename-driven format
// selection, including gzip composition, and the unknown-format error.
func TestSaveFormat(t *testing.T) {
	db := sampleDB(t)
	dir := t.TempDir()
	want, _ := Encode(db)

	check := func(path string) {
		t.Helper()
		got := openDBFile(t, path)
		re, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, re) {
			t.Fatalf("%s: load changed the canonical encoding", path)
		}
	}

	explicit := filepath.Join(dir, "db.bin")
	if err := SaveFormat(db, explicit, "v2"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !IsV2(raw) {
		t.Fatal("SaveFormat(v2) did not write the v2 magic")
	}
	check(explicit)

	suffixed := filepath.Join(dir, "db.v2")
	if err := Save(db, suffixed); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(suffixed); err != nil || !IsV2(raw) {
		t.Fatalf("Save(*.v2) did not write v2: %v", err)
	}
	check(suffixed)
	if r, err := Open(suffixed); err != nil {
		t.Fatal(err)
	} else if sv := r.(*StoreV2); !sv.HasPostings() || !sv.HasFragments() {
		t.Fatal("Save(*.v2) should embed postings and fragments")
	} else if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	zipped := filepath.Join(dir, "db.v2.gz")
	if err := Save(db, zipped); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(zipped); err != nil || IsV2(raw) {
		t.Fatalf("Save(*.v2.gz) should be gzip on the outside: %v", err)
	}
	check(zipped)
	if _, err := Open(zipped); err != nil {
		t.Fatalf("Open(*.v2.gz): %v", err)
	}

	if err := SaveFormat(db, filepath.Join(dir, "x"), "v7"); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("SaveFormat(v7) = %v, want unknown-format error", err)
	}
}
