package sql

import (
	"fmt"
	"strings"
	"testing"
)

// TestLexTable pins kinds, texts and byte offsets of the lexer's edge
// cases.
func TestLexTable(t *testing.T) {
	type tk struct {
		kind tokenKind
		text string
		pos  int
	}
	cases := []struct {
		in   string
		want []tk
	}{
		{"select * FROM t", []tk{{tokKeyword, "SELECT", 0}, {tokSymbol, "*", 7},
			{tokKeyword, "FROM", 9}, {tokIdent, "t", 14}, {tokEOF, "", 15}}},
		{"SeLeCt iNt Primary", []tk{{tokKeyword, "SELECT", 0}, {tokKeyword, "INT", 7},
			{tokKeyword, "PRIMARY", 11}, {tokEOF, "", 18}}},
		{"Users _x1 a_b2", []tk{{tokIdent, "Users", 0}, {tokIdent, "_x1", 6},
			{tokIdent, "a_b2", 10}, {tokEOF, "", 14}}},
		{"größe = 'straße'", []tk{{tokIdent, "größe", 0}, {tokSymbol, "=", 8},
			{tokString, "straße", 10}, {tokEOF, "", 19}}},
		{"'it''s' '' ''''", []tk{{tokString, "it's", 0}, {tokString, "", 8},
			{tokString, "'", 11}, {tokEOF, "", 15}}},
		{"1e-3 2.5E+4 -7 42 3.", []tk{{tokNumber, "1e-3", 0}, {tokNumber, "2.5E+4", 5},
			{tokNumber, "-7", 12}, {tokNumber, "42", 15}, {tokNumber, "3.", 18}, {tokEOF, "", 20}}},
		{"a-1", []tk{{tokIdent, "a", 0}, {tokNumber, "-1", 1}, {tokEOF, "", 3}}},
		{"a <= 1 AND b >= 2 AND c != 3 AND d < e AND f > g", []tk{
			{tokIdent, "a", 0}, {tokSymbol, "<=", 2}, {tokNumber, "1", 5},
			{tokKeyword, "AND", 7}, {tokIdent, "b", 11}, {tokSymbol, ">=", 13}, {tokNumber, "2", 16},
			{tokKeyword, "AND", 18}, {tokIdent, "c", 22}, {tokSymbol, "!=", 24}, {tokNumber, "3", 27},
			{tokKeyword, "AND", 29}, {tokIdent, "d", 33}, {tokSymbol, "<", 35}, {tokIdent, "e", 37},
			{tokKeyword, "AND", 39}, {tokIdent, "f", 43}, {tokSymbol, ">", 45}, {tokIdent, "g", 47},
			{tokEOF, "", 48}}},
		{"(?,?);", []tk{{tokSymbol, "(", 0}, {tokSymbol, "?", 1}, {tokSymbol, ",", 2},
			{tokSymbol, "?", 3}, {tokSymbol, ")", 4}, {tokSymbol, ";", 5}, {tokEOF, "", 6}}},
		{"DROP t -- gone 'unterminated\nTABLE", []tk{{tokKeyword, "DROP", 0}, {tokIdent, "t", 5},
			{tokKeyword, "TABLE", 29}, {tokEOF, "", 34}}},
		{"x --", []tk{{tokIdent, "x", 0}, {tokEOF, "", 4}}},
		{"\t\n explainer analyzed", []tk{{tokIdent, "explainer", 3}, {tokIdent, "analyzed", 13},
			{tokEOF, "", 21}}},
	}
	for _, c := range cases {
		toks, err := lex(c.in)
		if err != nil {
			t.Errorf("lex(%q): %v", c.in, err)
			continue
		}
		got := make([]tk, len(toks))
		for i, tok := range toks {
			got[i] = tk{tok.kind, tok.text, tok.pos}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("lex(%q)\n got %v\nwant %v", c.in, got, c.want)
		}
	}
}

// TestLexErrors pins the lexer's error messages.
func TestLexErrors(t *testing.T) {
	for in, want := range map[string]string{
		"SELECT 'open":      "sql: unterminated string at 7",
		"a = 'x''":          "sql: unterminated string at 4",
		"SELECT # FROM t":   `sql: unexpected character '#' at 7`,
		"a ! b":             `sql: unexpected character '!' at 2`,
		"name = \"quoted\"": `sql: unexpected character '"' at 7`,
	} {
		if _, err := lex(in); err == nil || err.Error() != want {
			t.Errorf("lex(%q) = %v, want %q", in, err, want)
		}
	}
}

// TestAllocsLexUpdate: lexing a keyed UPDATE allocates the token slice
// and nothing per token.
func TestAllocsLexUpdate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const q = "UPDATE bench SET seq = 123456 WHERE id = 98765"
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := lex(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("lex: %.1f allocs, want at most 1 (the token slice)", allocs)
	}
}

// TestAllocsNormalizeUpdate: normalizing the same UPDATE for the plan
// cache allocates the token slice, the shape and the argument slice —
// no parser per literal, no string per token.
func TestAllocsNormalizeUpdate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const q = "UPDATE bench SET seq = 123456 WHERE id = 98765"
	shape, args, ok := normalize(q)
	if !ok || shape != "UPDATE bench SET seq = ? WHERE id = ?" || len(args) != 2 {
		t.Fatalf("normalize = %q, %v, %v", shape, args, ok)
	}
	allocs := testing.AllocsPerRun(200, func() { normalize(q) })
	if allocs > 3 {
		t.Fatalf("normalize: %.1f allocs, want at most 3", allocs)
	}
	if strings.Contains(shape, "  ") {
		t.Fatalf("shape %q has a double space", shape)
	}
}
