package core

import (
	"fmt"
	"strconv"
	"strings"
)

// The feature-model DSL is a small indentation-free textual format used
// by the CLI tools and tests:
//
//	model FAME-DBMS {
//	    mandatory abstract Access {
//	        optional Put "stores a record"
//	        optional Get
//	    }
//	    mandatory abstract Index {
//	        alternative BPlusTree
//	        alternative List
//	    }
//	}
//	constraint Remove => Search
//	constraint !(Crypto & NutOS)
//
// Each feature line is: relation ["abstract"] Name [description-string]
// and an optional { ... } block with the children. Comments start with
// '#' and run to the end of the line.

// writeDSL renders the model in DSL syntax.
func writeDSL(b *strings.Builder, m *Model) {
	fmt.Fprintf(b, "model %s", m.root.Name)
	writeDSLBlock(b, m.root, 0)
	b.WriteString("\n")
	for _, c := range m.constraints {
		fmt.Fprintf(b, "constraint %s\n", c.Text)
	}
}

func writeDSLBlock(b *strings.Builder, f *Feature, depth int) {
	if len(f.children) == 0 {
		b.WriteString("\n")
		return
	}
	b.WriteString(" {\n")
	for _, c := range f.children {
		b.WriteString(strings.Repeat("    ", depth+1))
		b.WriteString(c.Relation.String())
		if c.Abstract {
			b.WriteString(" abstract")
		}
		b.WriteString(" " + c.Name)
		if c.Description != "" {
			b.WriteString(" " + strconv.Quote(c.Description))
		}
		writeDSLBlock(b, c, depth+1)
	}
	b.WriteString(strings.Repeat("    ", depth) + "}\n")
}

// ParseModel parses a model from DSL text and finalizes it.
func ParseModel(text string) (*Model, error) {
	p := &dslParser{toks: tokenizeDSL(text)}
	m, err := p.parseModel()
	if err != nil {
		return nil, fmt.Errorf("core: parse model: %w", err)
	}
	if err := m.Finalize(); err != nil {
		return nil, err
	}
	return m, nil
}

type dslToken struct {
	text string
	line int
}

type dslParser struct {
	toks []dslToken
	pos  int
}

func tokenizeDSL(text string) []dslToken {
	var toks []dslToken
	line := 1
	rs := []rune(text)
	for i := 0; i < len(rs); {
		r := rs[i]
		switch {
		case r == '\n':
			line++
			i++
		case r == ' ' || r == '\t' || r == '\r':
			i++
		case r == '#':
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case r == '{' || r == '}':
			toks = append(toks, dslToken{string(r), line})
			i++
		case r == '"':
			j := i + 1
			for j < len(rs) && rs[j] != '"' {
				if rs[j] == '\\' && j+1 < len(rs) {
					j++ // skip the escaped rune, if there is one
				}
				j++
			}
			if j < len(rs) {
				j++ // include closing quote
			}
			toks = append(toks, dslToken{string(rs[i:j]), line})
			i = j
		default:
			// A constraint body runs to end of line; everything else is
			// an identifier-ish token. Scan a maximal run of
			// non-space, non-brace characters.
			j := i
			for j < len(rs) && !strings.ContainsRune(" \t\r\n{}#\"", rs[j]) {
				j++
			}
			toks = append(toks, dslToken{string(rs[i:j]), line})
			i = j
		}
	}
	return toks
}

func (p *dslParser) peek() dslToken {
	if p.pos >= len(p.toks) {
		return dslToken{}
	}
	return p.toks[p.pos]
}

func (p *dslParser) next() dslToken {
	t := p.peek()
	p.pos++
	return t
}

func (p *dslParser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("line %d: expected %q, found %q", t.line, text, t.text)
	}
	return nil
}

// isDSLName reports whether a token can name the model or a feature:
// not missing, not a brace, not a quoted string.
func isDSLName(tok string) bool {
	return tok != "" && !strings.ContainsAny(tok, "{}\"")
}

func (p *dslParser) parseModel() (*Model, error) {
	if err := p.expect("model"); err != nil {
		return nil, err
	}
	name := p.next()
	if name.text == "" {
		return nil, fmt.Errorf("missing model name")
	}
	if !isDSLName(name.text) {
		return nil, fmt.Errorf("line %d: expected model name, found %q", name.line, name.text)
	}
	m := NewModel(name.text)
	if p.peek().text == "{" {
		if err := p.parseChildren(m, m.root); err != nil {
			return nil, err
		}
	}
	for p.peek().text != "" {
		t := p.next()
		if t.text != "constraint" {
			return nil, fmt.Errorf("line %d: expected \"constraint\", found %q", t.line, t.text)
		}
		// Collect tokens until end of the constraint: a constraint ends
		// where the next "constraint" keyword or EOF begins.
		var parts []string
		for p.peek().text != "" && p.peek().text != "constraint" {
			tok := p.next()
			parts = append(parts, tok.text)
		}
		text := strings.Join(parts, " ")
		if err := m.ConstrainText(text); err != nil {
			return nil, fmt.Errorf("line %d: %w", t.line, err)
		}
	}
	return m, nil
}

var dslRelations = map[string]RelationKind{
	"mandatory":   Mandatory,
	"optional":    Optional,
	"alternative": Alternative,
	"or":          OrGroup,
}

func (p *dslParser) parseChildren(m *Model, parent *Feature) error {
	if err := p.expect("{"); err != nil {
		return err
	}
	for {
		t := p.peek()
		switch {
		case t.text == "}":
			p.next()
			return nil
		case t.text == "":
			return fmt.Errorf("unexpected end of input in feature block of %q", parent.Name)
		}
		rel, ok := dslRelations[t.text]
		if !ok {
			return fmt.Errorf("line %d: expected a relation keyword, found %q", t.line, t.text)
		}
		p.next()
		abstract := false
		if p.peek().text == "abstract" {
			p.next()
			abstract = true
		}
		nameTok := p.next()
		if !isDSLName(nameTok.text) {
			return fmt.Errorf("line %d: expected feature name, found %q", nameTok.line, nameTok.text)
		}
		f := parent.AddChild(nameTok.text, rel)
		f.Abstract = abstract
		if d := p.peek().text; len(d) >= 2 && d[0] == '"' {
			p.next()
			desc, err := strconv.Unquote(d)
			if err != nil {
				return fmt.Errorf("line %d: bad description %s: %v", nameTok.line, d, err)
			}
			f.Description = desc
		}
		if p.peek().text == "{" {
			if err := p.parseChildren(m, f); err != nil {
				return err
			}
		}
	}
}
