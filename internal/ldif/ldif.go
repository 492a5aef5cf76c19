// Package ldif reads and writes directory instances in the LDAP Data
// Interchange Format (an RFC 2849 subset). It supports content records,
// change records of type add, delete and moddn (subtree relocation), with
// base64-encoded values, line folding and comments.
//
// Limitations (documented, deliberate): no changetype modify, no
// URL-valued attributes (attr:< ...), moddn keeps the RDN unchanged, and
// DNs use unescaped commas as component separators, matching the dirtree
// DN convention.
package ldif

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"sort"
	"strings"

	"boundschema/internal/dirtree"
)

// ChangeType identifies the kind of a record.
type ChangeType int

// Record kinds. Content records (plain entries) have changeNone.
const (
	changeNone ChangeType = iota
	ChangeAdd
	ChangeDelete
	// ChangeModDN relocates a subtree under NewSuperior (the RFC 2849
	// changetype moddn/modrdn, restricted to deleteoldrdn: 1 semantics
	// with an unchanged RDN).
	ChangeModDN
)

func (c ChangeType) String() string {
	switch c {
	case changeNone:
		return "content"
	case ChangeAdd:
		return "add"
	case ChangeDelete:
		return "delete"
	case ChangeModDN:
		return "moddn"
	}
	return "?"
}

// Attr is one textual (attribute, value) line of a record.
type Attr struct {
	Name  string
	Value string
}

// Record is one LDIF record.
type Record struct {
	DN     string
	Change ChangeType
	Attrs  []Attr // empty for delete records
	// NewSuperior is the destination parent DN for moddn records; ""
	// moves the subtree to the forest root.
	NewSuperior string
	Line        int // 1-based line number of the dn: line, for error reports
}

// Reader parses LDIF records from an input stream.
type Reader struct {
	s    *bufio.Scanner
	line int
	// peeked holds one pushed-back logical line.
	peeked  string
	hasPeek bool
	eof     bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{s: s}
}

// nextPhysical returns the next physical line, honoring one line of
// push-back.
func (r *Reader) nextPhysical() (string, bool) {
	if r.hasPeek {
		r.hasPeek = false
		return r.peeked, true
	}
	if !r.s.Scan() {
		r.eof = true
		return "", false
	}
	r.line++
	return r.s.Text(), true
}

func (r *Reader) unread(line string) {
	r.peeked, r.hasPeek = line, true
}

// nextLogical returns the next logical line: folded continuations joined,
// comments (and their continuations) skipped. Blank lines are returned
// as "".
func (r *Reader) nextLogical() (string, bool) {
	for {
		line, ok := r.nextPhysical()
		if !ok {
			return "", false
		}
		if strings.HasPrefix(line, "#") {
			// Skip the comment including its folded continuations.
			for {
				next, ok := r.nextPhysical()
				if !ok {
					return "", false
				}
				if !strings.HasPrefix(next, " ") {
					r.unread(next)
					break
				}
			}
			continue
		}
		if line == "" {
			return "", true
		}
		// Join folded continuation lines (leading single space).
		for {
			next, ok := r.nextPhysical()
			if !ok {
				return line, true
			}
			if strings.HasPrefix(next, " ") {
				line += next[1:]
				continue
			}
			r.unread(next)
			break
		}
		return line, true
	}
}

// next returns the next record, or io.EOF.
func (r *Reader) next() (*Record, error) {
	// Skip blank separators and an optional version line.
	var first string
	for {
		line, ok := r.nextLogical()
		if !ok {
			return nil, io.EOF
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "version:") {
			continue
		}
		first = line
		break
	}
	name, value, err := splitLine(first)
	if err != nil {
		return nil, fmt.Errorf("ldif: line %d: %v", r.line, err)
	}
	if !strings.EqualFold(name, "dn") {
		return nil, fmt.Errorf("ldif: line %d: record must start with dn:, got %q", r.line, name)
	}
	rec := &Record{DN: value, Line: r.line}
	for {
		line, ok := r.nextLogical()
		if !ok || line == "" {
			break
		}
		name, value, err := splitLine(line)
		if err != nil {
			return nil, fmt.Errorf("ldif: line %d: %v", r.line, err)
		}
		if strings.EqualFold(name, "changetype") {
			switch strings.ToLower(strings.TrimSpace(value)) {
			case "add":
				rec.Change = ChangeAdd
			case "delete":
				rec.Change = ChangeDelete
			case "moddn", "modrdn":
				rec.Change = ChangeModDN
			default:
				return nil, fmt.Errorf("ldif: line %d: unsupported changetype %q", r.line, value)
			}
			continue
		}
		if strings.EqualFold(name, "newsuperior") {
			rec.NewSuperior = value
			continue
		}
		rec.Attrs = append(rec.Attrs, Attr{Name: name, Value: value})
	}
	if rec.Change == ChangeDelete && len(rec.Attrs) > 0 {
		return nil, fmt.Errorf("ldif: line %d: delete record must not carry attributes", rec.Line)
	}
	if rec.Change == ChangeModDN && len(rec.Attrs) > 0 {
		return nil, fmt.Errorf("ldif: line %d: moddn record must not carry attributes", rec.Line)
	}
	return rec, nil
}

// ReadAll returns all records in the stream.
func (r *Reader) ReadAll() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := r.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// splitLine splits "name: value" or "name:: base64" into name and decoded
// value.
func splitLine(line string) (string, string, error) {
	i := strings.IndexByte(line, ':')
	if i <= 0 {
		return "", "", fmt.Errorf("malformed line %q", line)
	}
	name := line[:i]
	rest := line[i+1:]
	if strings.HasPrefix(rest, ":") {
		raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(rest[1:]))
		if err != nil {
			return "", "", fmt.Errorf("bad base64 value for %s: %v", name, err)
		}
		return name, string(raw), nil
	}
	return name, strings.TrimPrefix(rest, " "), nil
}

// SplitDN splits a distinguished name into its leading RDN and the parent
// DN ("" for a root).
func SplitDN(dn string) (rdn, parent string, err error) {
	dn = strings.TrimSpace(dn)
	if dn == "" {
		return "", "", fmt.Errorf("ldif: empty DN")
	}
	i := strings.IndexByte(dn, ',')
	if i < 0 {
		return dn, "", nil
	}
	if i == 0 || i == len(dn)-1 {
		return "", "", fmt.Errorf("ldif: malformed DN %q", dn)
	}
	return strings.TrimSpace(dn[:i]), strings.TrimSpace(dn[i+1:]), nil
}

// ReadDirectory parses content records into a fresh directory using reg
// for attribute typing. Records must list parents before children, the
// usual LDIF convention.
func ReadDirectory(r io.Reader, reg *dirtree.Registry) (*dirtree.Directory, error) {
	d := dirtree.New(reg)
	rd := NewReader(r)
	for {
		rec, err := rd.next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Change != changeNone {
			return nil, fmt.Errorf("ldif: line %d: change record in content stream (use ReadChanges)", rec.Line)
		}
		if err := addRecord(d, rec); err != nil {
			return nil, err
		}
	}
}

// addRecord materializes one content or add record into the directory.
func addRecord(d *dirtree.Directory, rec *Record) error {
	rdn, parentDN, err := SplitDN(rec.DN)
	if err != nil {
		return err
	}
	var parent *dirtree.Entry
	if parentDN != "" {
		parent = d.ByDN(parentDN)
		if parent == nil {
			return fmt.Errorf("ldif: line %d: parent %q of %q not found (parents must precede children)", rec.Line, parentDN, rec.DN)
		}
	}
	// The classes go in with the entry, so it is interned into its class
	// set once rather than through one intermediate set per class line.
	var buf [8]string
	classes := buf[:0]
	for _, a := range rec.Attrs {
		if strings.EqualFold(a.Name, dirtree.AttrObjectClass) {
			classes = append(classes, a.Value)
		}
	}
	var e *dirtree.Entry
	if parent == nil {
		e, err = d.AddRoot(rdn, classes...)
	} else {
		e, err = d.AddChild(parent, rdn, classes...)
	}
	if err != nil {
		return fmt.Errorf("ldif: line %d: %v", rec.Line, err)
	}
	reg := d.Registry()
	for _, a := range rec.Attrs {
		if strings.EqualFold(a.Name, dirtree.AttrObjectClass) {
			continue
		}
		v, err := dirtree.ParseValue(reg.Type(a.Name), a.Value)
		if err != nil {
			return fmt.Errorf("ldif: line %d: attribute %s: %v", rec.Line, a.Name, err)
		}
		e.AddValue(a.Name, v)
	}
	return nil
}

// ---------------------------------------------------------------------
// Writing.

// WriteDirectory serializes the directory's entries as content records in
// pre-order, so the output is loadable by ReadDirectory.
func WriteDirectory(w io.Writer, d *dirtree.Directory) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "version: 1")
	for _, e := range d.Entries() {
		bw.WriteByte('\n')
		if err := writeEntry(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeEntry(w *bufio.Writer, e *dirtree.Entry) error {
	writeLine(w, "dn", e.DN())
	for _, c := range e.ClassSet().Names {
		writeLine(w, dirtree.AttrObjectClass, c)
	}
	names := e.AttrNames()
	sort.Strings(names)
	for _, name := range names {
		if name == dirtree.AttrObjectClass {
			continue
		}
		for _, v := range e.Attr(name) {
			writeLine(w, name, v.String())
		}
	}
	return nil
}

// writeLine emits one attribute line, base64-encoding unsafe values and
// folding lines longer than 76 columns per RFC 2849.
func writeLine(w *bufio.Writer, name, value string) {
	var line string
	if safeValue(value) {
		line = name + ": " + value
	} else {
		line = name + ":: " + base64.StdEncoding.EncodeToString([]byte(value))
	}
	const width = 76
	if len(line) <= width {
		w.WriteString(line)
		w.WriteByte('\n')
		return
	}
	w.WriteString(line[:width])
	w.WriteByte('\n')
	for rest := line[width:]; len(rest) > 0; {
		n := width - 1
		if n > len(rest) {
			n = len(rest)
		}
		w.WriteByte(' ')
		w.WriteString(rest[:n])
		w.WriteByte('\n')
		rest = rest[n:]
	}
}

// safeValue reports whether the value may appear verbatim after "name: ".
func safeValue(v string) bool {
	if v == "" {
		return true
	}
	switch v[0] {
	case ' ', ':', '<':
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '\r' || c == '\n' || c == 0 || c >= 0x80 {
			return false
		}
	}
	return v[len(v)-1] != ' '
}
