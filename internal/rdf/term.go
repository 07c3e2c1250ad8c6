// Package rdf provides the core RDF data model used throughout the
// repository: terms (IRIs, literals, blank nodes), triples, and a streaming
// N-Triples reader and writer.
//
// The model is deliberately minimal: it covers exactly the subset of RDF 1.1
// needed by the LUBM benchmark and the engines in this repository. Datatype
// and language-tagged literals are preserved verbatim but not interpreted.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three RDF term kinds.
type TermKind uint8

const (
	// IRI is an absolute IRI reference such as <http://example.org/a>.
	IRI TermKind = iota
	// Literal is an RDF literal, optionally carrying a datatype IRI or a
	// language tag.
	Literal
	// Blank is a blank node with a document-scoped label.
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is one RDF term. Terms are value types; the zero value is the empty
// IRI, which is never produced by the parser.
type Term struct {
	// Kind says which of the three RDF term kinds this is.
	Kind TermKind
	// Value holds the IRI string (without angle brackets), the literal's
	// lexical form (without quotes), or the blank node label (without "_:").
	Value string
	// Datatype holds the datatype IRI for typed literals, or "" for plain
	// literals and non-literals.
	Datatype string
	// Lang holds the language tag for language-tagged literals, or "".
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [128]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the term's N-Triples rendering to dst and returns the
// extended slice — String without the intermediate string, for callers
// that key or store the rendering (the dictionary above all).
func (t Term) AppendTo(dst []byte) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case Blank:
		dst = append(dst, '_', ':')
		return append(dst, t.Value...)
	case Literal:
		dst = append(dst, '"')
		dst = appendEscapedLiteral(dst, t.Value)
		dst = append(dst, '"')
		if t.Lang != "" {
			dst = append(dst, '@')
			dst = append(dst, t.Lang...)
		} else if t.Datatype != "" {
			dst = append(dst, '^', '^', '<')
			dst = append(dst, t.Datatype...)
			dst = append(dst, '>')
		}
		return dst
	default:
		return fmt.Appendf(dst, "<invalid term kind %d>", t.Kind)
	}
}

// Key returns a canonical string that uniquely identifies the term. It is
// suitable for use as a map key and for dictionary encoding. The N-Triples
// rendering is already canonical for our purposes, so Key simply reuses it.
func (t Term) Key() string { return t.String() }

// Compare orders terms: first by kind (IRI < Literal < Blank), then by
// value, datatype, and language. It returns -1, 0, or +1.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, o.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, o.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, o.Lang)
}

// appendEscapedLiteral appends s with the characters N-Triples requires
// escaping inside string literals escaped. It works bytewise, so any other
// byte — including invalid UTF-8 — passes through unchanged.
func appendEscapedLiteral(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// Triple is one RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples line (without the newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Compare orders triples lexicographically by (S, P, O).
func (t Triple) Compare(o Triple) int {
	if c := t.S.Compare(o.S); c != 0 {
		return c
	}
	if c := t.P.Compare(o.P); c != 0 {
		return c
	}
	return t.O.Compare(o.O)
}

// Well-known IRIs used across the repository.
const (
	// RDFType is the rdf:type predicate IRI.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	// XSDString is the default string datatype (left implicit on plain
	// literals, per RDF 1.1).
	XSDString = "http://www.w3.org/2001/XMLSchema#string"
)
