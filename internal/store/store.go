// Package store persists the RemembERR database as JSON — the
// machine-readable distribution format the paper advocates (its own
// release ships the database as structured files). Encoding is
// deterministic: documents, errata and annotation items keep a stable
// order, so repeated encodings of the same database are byte-identical.
package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
)

// FormatVersion identifies the serialization layout.
const FormatVersion = 1

type fileDTO struct {
	Version   int      `json:"version"`
	Generated string   `json:"generated,omitempty"`
	Documents []docDTO `json:"documents"`
}

type docDTO struct {
	Key       string   `json:"key"`
	Vendor    string   `json:"vendor"`
	Label     string   `json:"label"`
	Reference string   `json:"reference"`
	Order     int      `json:"order"`
	GenIndex  int      `json:"gen_index,omitempty"`
	Released  string   `json:"released"`
	Revisions []revDTO `json:"revisions"`
	Errata    []errDTO `json:"errata"`
	Withdrawn []string `json:"withdrawn,omitempty"`
}

type revDTO struct {
	Number int      `json:"number"`
	Date   string   `json:"date"`
	Added  []string `json:"added,omitempty"`
}

type errDTO struct {
	ID          string   `json:"id"`
	Seq         int      `json:"seq"`
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	Implication string   `json:"implication,omitempty"`
	Workaround  string   `json:"workaround,omitempty"`
	Status      string   `json:"status,omitempty"`
	WorkCat     string   `json:"workaround_category"`
	Fix         string   `json:"fix_status"`
	AddedIn     int      `json:"added_in,omitempty"`
	Disclosed   string   `json:"disclosed,omitempty"`
	Key         string   `json:"key,omitempty"`
	Triggers    []itDTO  `json:"triggers,omitempty"`
	Contexts    []itDTO  `json:"contexts,omitempty"`
	Effects     []itDTO  `json:"effects,omitempty"`
	MSRs        []string `json:"msrs,omitempty"`
	Complex     bool     `json:"complex_conditions,omitempty"`
	Trivial     bool     `json:"trivial_trigger,omitempty"`
	SimOnly     bool     `json:"simulation_only,omitempty"`
}

type itDTO struct {
	Category string `json:"category"`
	Concrete string `json:"concrete,omitempty"`
}

const dateFmt = "2006-01-02"

// Encode serializes the database to indented JSON.
func Encode(db *core.Database) ([]byte, error) {
	f := fileDTO{Version: FormatVersion}
	for _, d := range db.Documents() {
		dd := docDTO{
			Key:       d.Key,
			Vendor:    d.Vendor.String(),
			Label:     d.Label,
			Reference: d.Reference,
			Order:     d.Order,
			GenIndex:  d.GenIndex,
			Released:  d.Released.Format(dateFmt),
			Withdrawn: d.Withdrawn,
		}
		for _, r := range d.Revisions {
			dd.Revisions = append(dd.Revisions, revDTO{
				Number: r.Number, Date: r.Date.Format(dateFmt), Added: r.Added,
			})
		}
		for _, e := range d.Errata {
			ed := errDTO{
				ID:          e.ID,
				Seq:         e.Seq,
				Title:       e.Title,
				Description: e.Description,
				Implication: e.Implication,
				Workaround:  e.Workaround,
				Status:      e.Status,
				WorkCat:     e.WorkaroundCat.String(),
				Fix:         e.Fix.String(),
				AddedIn:     e.AddedIn,
				Key:         e.Key,
				Triggers:    toItems(e.Ann.Triggers),
				Contexts:    toItems(e.Ann.Contexts),
				Effects:     toItems(e.Ann.Effects),
				MSRs:        e.Ann.MSRs,
				Complex:     e.Ann.ComplexConditions,
				Trivial:     e.Ann.TrivialTrigger,
				SimOnly:     e.Ann.SimulationOnly,
			}
			if !e.Disclosed.IsZero() {
				ed.Disclosed = e.Disclosed.Format(dateFmt)
			}
			dd.Errata = append(dd.Errata, ed)
		}
		f.Documents = append(f.Documents, dd)
	}
	return json.MarshalIndent(f, "", "  ")
}

func toItems(items []core.Item) []itDTO {
	out := make([]itDTO, 0, len(items))
	for _, it := range items {
		out = append(out, itDTO{Category: it.Category, Concrete: it.Concrete})
	}
	return out
}

// decodeV1 deserializes a FormatVersion 1 JSON database and validates
// it against the base taxonomy scheme.
func decodeV1(data []byte) (*core.Database, error) {
	var f fileDTO
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("store: unsupported format version %d", f.Version)
	}
	db := core.NewDatabase()
	for _, dd := range f.Documents {
		vendor, err := core.ParseVendor(dd.Vendor)
		if err != nil {
			return nil, fmt.Errorf("store: document %s: %w", dd.Key, err)
		}
		released, err := time.Parse(dateFmt, dd.Released)
		if err != nil {
			return nil, fmt.Errorf("store: document %s: %w", dd.Key, err)
		}
		d := &core.Document{
			Key:       dd.Key,
			Vendor:    vendor,
			Label:     dd.Label,
			Reference: dd.Reference,
			Order:     dd.Order,
			GenIndex:  dd.GenIndex,
			Released:  released,
			Withdrawn: dd.Withdrawn,
		}
		for _, rd := range dd.Revisions {
			rdate, err := time.Parse(dateFmt, rd.Date)
			if err != nil {
				return nil, fmt.Errorf("store: document %s revision %d: %w", dd.Key, rd.Number, err)
			}
			d.Revisions = append(d.Revisions, core.Revision{
				Number: rd.Number, Date: rdate, Added: rd.Added,
			})
		}
		for _, ed := range dd.Errata {
			wc, err := core.ParseWorkaroundCategory(ed.WorkCat)
			if err != nil {
				return nil, fmt.Errorf("store: erratum %s/%s: %w", dd.Key, ed.ID, err)
			}
			fx, err := core.ParseFixStatus(ed.Fix)
			if err != nil {
				return nil, fmt.Errorf("store: erratum %s/%s: %w", dd.Key, ed.ID, err)
			}
			e := &core.Erratum{
				DocKey:        dd.Key,
				ID:            ed.ID,
				Seq:           ed.Seq,
				Title:         ed.Title,
				Description:   ed.Description,
				Implication:   ed.Implication,
				Workaround:    ed.Workaround,
				Status:        ed.Status,
				WorkaroundCat: wc,
				Fix:           fx,
				AddedIn:       ed.AddedIn,
				Key:           ed.Key,
				Ann: core.Annotation{
					Triggers:          fromItems(ed.Triggers),
					Contexts:          fromItems(ed.Contexts),
					Effects:           fromItems(ed.Effects),
					MSRs:              ed.MSRs,
					ComplexConditions: ed.Complex,
					TrivialTrigger:    ed.Trivial,
					SimulationOnly:    ed.SimOnly,
				},
			}
			if ed.Disclosed != "" {
				t, err := time.Parse(dateFmt, ed.Disclosed)
				if err != nil {
					return nil, fmt.Errorf("store: erratum %s/%s: %w", dd.Key, ed.ID, err)
				}
				e.Disclosed = t
			}
			d.Errata = append(d.Errata, e)
		}
		if err := db.Add(d); err != nil {
			return nil, err
		}
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

func fromItems(items []itDTO) []core.Item {
	if len(items) == 0 {
		return nil
	}
	out := make([]core.Item, 0, len(items))
	for _, it := range items {
		out = append(out, core.Item{Category: it.Category, Concrete: it.Concrete})
	}
	return out
}

// Save writes the database to a file. Paths whose name (before an
// optional ".gz") ends in ".v2" are written in FormatVersion 2 with
// postings and response fragments embedded; everything else stays
// FormatVersion 1 JSON. Paths ending in ".gz" are gzip-compressed (the
// full v1 corpus shrinks roughly tenfold).
func Save(db *core.Database, path string) error {
	return SaveFormat(db, path, "")
}

// SaveFormat writes the database in an explicit serialization format:
// "v1" (JSON), "v2" (the zero-decode binary layout, with postings and
// fragments), or "" to pick by filename — paths whose name ends in
// ".v2" (before any ".gz") get FormatVersion 2, everything else v1.
// ".gz" paths are gzip-compressed regardless of format.
func SaveFormat(db *core.Database, path, format string) error {
	if format == "" {
		if strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".v2") {
			format = "v2"
		} else {
			format = "v1"
		}
	}
	var encode func(w io.Writer) error
	switch format {
	case "v2":
		// Streamed: the encoder's section buffers are the only full copy
		// in memory; header, directory and sections go straight to the
		// temp file.
		encode = func(w io.Writer) error {
			return EncodeV2To(w, db, V2Options{Postings: true, Fragments: true})
		}
	case "v1":
		// v1 stays buffered — json.MarshalIndent has no streaming mode
		// and the golden files pin its exact bytes.
		encode = func(w io.Writer) error {
			data, err := Encode(db)
			if err != nil {
				return err
			}
			_, err = w.Write(data)
			return err
		}
	default:
		return fmt.Errorf("store: unknown format %q (want v1 or v2)", format)
	}
	return writeAtomicTo(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".gz") {
			zw := gzip.NewWriter(w)
			if err := encode(zw); err != nil {
				return err
			}
			return zw.Close()
		}
		return encode(w)
	})
}

// writeAtomicTo streams fill into a temp file in path's directory and
// renames it over path, so readers — and a serving process re-opening
// on SIGHUP — never observe a partially written database.
func writeAtomicTo(path string, fill func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

func readMaybeGzip(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".gz") {
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
	return data, nil
}

// EncodeStructured serializes errata in the paper's proposed
// machine-readable format (Table VII), one record per unique erratum.
func EncodeStructured(db *core.Database) ([]byte, error) {
	type structuredDTO struct {
		ID         string  `json:"id"`
		Title      string  `json:"title"`
		Triggers   []itDTO `json:"triggers"`
		Contexts   []itDTO `json:"contexts"`
		Effects    []itDTO `json:"effects"`
		Comments   string  `json:"comments,omitempty"`
		RootCause  string  `json:"root_cause,omitempty"`
		Workaround string  `json:"workaround,omitempty"`
		Status     string  `json:"status"`
	}
	var out []structuredDTO
	for _, e := range db.Unique() {
		s := core.Structure(e)
		out = append(out, structuredDTO{
			ID:         s.ID,
			Title:      s.Title,
			Triggers:   toItems(s.Triggers),
			Contexts:   toItems(s.Contexts),
			Effects:    toItems(s.Effects),
			Comments:   s.Comments,
			RootCause:  s.RootCause,
			Workaround: s.Workaround,
			Status:     s.Status.String(),
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
