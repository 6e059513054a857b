package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"weak"

	"cdb/internal/schema"
	"cdb/internal/storage"
)

// Manifest describes one snapshot: a named, parent-linked list of page
// references per relation. It carries no page *content* — pages live in
// the store's page file and are shared by every manifest that references
// them — so a manifest is small and a Fork is a manifest copy.
//
// Manifests travel through the WAL as JSON commit records, which is why
// every field is validated on decode: a corrupt WAL byte must surface as
// an error, never as a silently-wrong snapshot (see FuzzManifest).
type Manifest struct {
	// ID is the snapshot's identity ("snap<seq>-<8 hex>").
	ID string `json:"id"`

	// Parent is the snapshot this one was committed from or forked off
	// (empty for a root commit). Purely informational lineage: page
	// sharing is by content, not by parent links.
	Parent string `json:"parent,omitempty"`

	// DB is the database name label the snapshot was taken from.
	DB string `json:"db,omitempty"`

	// CreatedUnixMS is the commit wall-clock time.
	CreatedUnixMS int64 `json:"created_unix_ms"`

	// Tuples is the committed database's tuple count (informational).
	Tuples int `json:"tuples,omitempty"`

	// NewPages is how many pages this commit physically wrote (0 for a
	// fork); the rest of its references were shared. Persisted so
	// listings keep their share accounting across a restart.
	NewPages int `json:"new_pages,omitempty"`

	// Relations lists each relation's schema and page run, in database
	// insertion order. Materialize decodes each run's concatenated
	// payloads (codec.go) against that schema.
	Relations []RelationPages `json:"relations"`
}

// RelationPages is one relation inside a manifest: its schema, which the
// page records refer to by attribute position, and its page run.
type RelationPages struct {
	Name   string    `json:"name"`
	Schema []Attr    `json:"schema"`
	Pages  []PageRef `json:"pages"`

	// form points, weakly, at the stored form this page run was built from
	// (Commit) or decoded into (Materialize), for as long as some relation in
	// memory carries it. In memory only: never serialised, empty after a WAL
	// replay, copied by Fork.
	form weak.Pointer[storedForm]
}

// Attr is one attribute of a stored schema. In the manifest's JSON it is
// the text format's "name type kind" — one string, the last two words
// being the type ("string", "rational") and the kind ("relational",
// "constraint").
type Attr schema.Attribute

func (a Attr) MarshalText() ([]byte, error) {
	return []byte(a.Name + " " + a.Type.String() + " " + a.Kind.String()), nil
}

func (a *Attr) UnmarshalText(text []byte) error {
	s := string(text)
	k := strings.LastIndexByte(s, ' ')
	t := strings.LastIndexByte(s[:max(k, 0)], ' ')
	if t < 0 {
		return fmt.Errorf("snapshot: attribute %q: want \"name type kind\"", s)
	}
	a.Name = s[:t]
	switch typ := s[t+1 : k]; typ {
	case schema.String.String():
		a.Type = schema.String
	case schema.Rational.String():
		a.Type = schema.Rational
	default:
		return fmt.Errorf("snapshot: attribute %q: unknown type %q", a.Name, typ)
	}
	switch kind := s[k+1:]; kind {
	case schema.Relational.String():
		a.Kind = schema.Relational
	case schema.Constraint.String():
		a.Kind = schema.Constraint
	default:
		return fmt.Errorf("snapshot: attribute %q: unknown kind %q", a.Name, kind)
	}
	return nil
}

// attrsOf is s as a manifest stores it.
func attrsOf(s schema.Schema) []Attr {
	out := make([]Attr, s.Len())
	for i, a := range s.Attrs() {
		out[i] = Attr(a)
	}
	return out
}

// schema rebuilds the relation's schema, rejecting anything the schema
// package would not have let a committed relation carry.
func (rel RelationPages) schema() (schema.Schema, error) { return schemaOf(rel.Schema) }

// schemaOf is the inverse of attrsOf, with the schema package's checks.
func schemaOf(stored []Attr) (schema.Schema, error) {
	attrs := make([]schema.Attribute, len(stored))
	for i, a := range stored {
		attrs[i] = schema.Attribute(a)
	}
	return schema.New(attrs...)
}

// PageRef points at one content page. Page is the slot in the store's
// page file; Hash is the FNV-1a 64 fingerprint of the payload, checked
// on every Materialize so a corrupt or misdirected page read is an
// error, not silent data.
type PageRef struct {
	Page uint32 `json:"page"`
	Hash uint64 `json:"hash"`
}

// encodeManifest renders m as the WAL commit-record payload.
func encodeManifest(m *Manifest) ([]byte, error) {
	return json.Marshal(m)
}

// decodeManifest parses and validates a WAL commit-record payload.
// Unknown fields, missing ids, zero page slots and absurd sizes are all
// rejected: the WAL is the durability boundary, so anything that decodes
// must be a manifest the store could actually have written.
func decodeManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("snapshot: bad manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("snapshot: trailing bytes after manifest")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// maxManifestRelations bounds a decoded manifest's shape so a corrupt
// length field cannot balloon replay memory.
const maxManifestRelations = 1 << 20

func (m *Manifest) validate() error {
	if m.ID == "" {
		return fmt.Errorf("snapshot: manifest without an id")
	}
	if len(m.Relations) > maxManifestRelations {
		return fmt.Errorf("snapshot: manifest %s: %d relations (limit %d)", m.ID, len(m.Relations), maxManifestRelations)
	}
	if m.Tuples < 0 || m.NewPages < 0 {
		return fmt.Errorf("snapshot: manifest %s: negative counters", m.ID)
	}
	seen := make(map[string]bool, len(m.Relations))
	for _, rel := range m.Relations {
		if rel.Name == "" {
			return fmt.Errorf("snapshot: manifest %s: relation without a name", m.ID)
		}
		if seen[rel.Name] {
			return fmt.Errorf("snapshot: manifest %s: duplicate relation %q", m.ID, rel.Name)
		}
		seen[rel.Name] = true
		if _, err := rel.schema(); err != nil {
			return fmt.Errorf("snapshot: manifest %s: relation %q: %w", m.ID, rel.Name, err)
		}
		for _, ref := range rel.Pages {
			if ref.Page == 0 {
				return fmt.Errorf("snapshot: manifest %s: relation %q references page 0", m.ID, rel.Name)
			}
		}
	}
	return nil
}

// pageIDs returns every page slot the manifest references, with
// multiplicity (a page can back several identical chunks).
func (m *Manifest) pageIDs() []storage.PageID {
	var out []storage.PageID
	for _, rel := range m.Relations {
		for _, ref := range rel.Pages {
			out = append(out, storage.PageID(ref.Page))
		}
	}
	return out
}

// numPages is the total page-reference count.
func (m *Manifest) numPages() int {
	n := 0
	for _, rel := range m.Relations {
		n += len(rel.Pages)
	}
	return n
}

// clone deep-copies the manifest for Fork: page refs, the pointers to their
// stored forms and identity carry over, Tuples carries over (a fork holds
// the same data), NewPages stays zero (a fork writes nothing).
func (m *Manifest) clone() *Manifest {
	out := &Manifest{ID: m.ID, Parent: m.Parent, DB: m.DB, CreatedUnixMS: m.CreatedUnixMS, Tuples: m.Tuples}
	out.Relations = make([]RelationPages, len(m.Relations))
	for i, rel := range m.Relations {
		out.Relations[i] = RelationPages{Name: rel.Name, Schema: rel.Schema, Pages: append([]PageRef{}, rel.Pages...), form: rel.form}
	}
	return out
}
