// Package sql is the SQLEngine feature of FAME-DBMS: a compact SQL
// subset (CREATE/DROP TABLE, INSERT, SELECT, UPDATE, DELETE) executed
// over the access layer. The separate Optimizer feature selects index
// access paths; without it every query scans.
//
// Supported grammar (case-insensitive keywords):
//
//	CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//	DROP TABLE t
//	INSERT INTO t [(col, ...)] VALUES (lit, ...) [, (lit, ...)]...
//	SELECT * | cols | aggs FROM t [WHERE pred] [GROUP BY col]
//	       [ORDER BY col [ASC|DESC]] [LIMIT n]
//	UPDATE t SET col = lit [, col = lit]... [WHERE pred]
//	DELETE FROM t [WHERE pred]
//	EXPLAIN [ANALYZE] stmt
//
//	pred := col op lit [AND col op lit]...   op ∈ {=, !=, <, <=, >, >=}
//	aggs := COUNT(*|col) | MIN(col) | MAX(col) | SUM(col) | AVG(col), ...
//
// Every literal position (and LIMIT) also accepts a `?` placeholder,
// bound positionally at execution time — the CompiledQueries feature's
// prepared-statement surface (Engine.Prepare / Stmt.Exec).
//
// EXPLAIN renders the statement's plan without running it; EXPLAIN
// ANALYZE also executes it and appends the observed counters. Both
// need the QueryStats feature (see explain.go).
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , ; * = ? != < <= > >=
)

// token is one lexeme. Its text is the keyword's canonical upper-case
// spelling, a symbol constant, or — for identifiers, numbers and
// strings without escaped quotes — a substring of the input, so lexing
// allocates the token slice and nothing per token.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the input
}

// keywords maps each keyword's upper-case spelling to itself: a lookup
// with an upper-cased copy of a word returns the canonical constant.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"CREATE", "TABLE", "DROP", "INSERT", "INTO", "VALUES", "SELECT", "FROM",
		"WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "GROUP", "UPDATE", "SET",
		"DELETE", "AND", "PRIMARY", "KEY", "TRUE", "FALSE",
		"INT", "INTEGER", "FLOAT", "REAL", "DOUBLE", "TEXT", "STRING", "VARCHAR",
		"BLOB", "BOOL", "BOOLEAN", "NOT", "NULL", "EXPLAIN", "ANALYZE",
	} {
		m[kw] = kw
	}
	return m
}()

// keyword resolves word case-insensitively to its canonical keyword
// text. Only ASCII letters fold: a word with other bytes is never a
// keyword.
func keyword(word string) (string, bool) {
	var up [16]byte // longer than every keyword
	if len(word) > len(up) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// singleSymbols are the one-byte symbols; a token's text is a slice of
// this constant.
const singleSymbols = "(),;*=?"

// runeAt decodes the rune at byte offset i of s: ASCII directly, and
// only other bytes through utf8.
func runeAt(s string, i int) (r rune, size int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

// lex splits input into tokens.
func lex(input string) ([]token, error) {
	toks := make([]token, 0, len(input)/3+4)
	i := 0
	for i < len(input) {
		r, size := runeAt(input, i)
		next := byte(0)
		if i+1 < len(input) {
			next = input[i+1]
		}
		switch {
		case unicode.IsSpace(r):
			i += size
		case r == '-' && next == '-':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case r == '(' || r == ')' || r == ',' || r == ';' || r == '*' || r == '=' || r == '?':
			k := strings.IndexByte(singleSymbols, byte(r))
			toks = append(toks, token{tokSymbol, singleSymbols[k : k+1], i})
			i++
		case r == '!' && next == '=':
			toks = append(toks, token{tokSymbol, "!=", i})
			i += 2
		case r == '<' || r == '>':
			sym := "<"
			switch {
			case r == '<' && next == '=':
				sym = "<="
			case r == '>' && next == '=':
				sym = ">="
			case r == '>':
				sym = ">"
			}
			toks = append(toks, token{tokSymbol, sym, i})
			i += len(sym)
		case r == '\'':
			// The body runs to the first quote not doubled; '' is an
			// escaped quote.
			j, escaped := i+1, false
			for {
				k := strings.IndexByte(input[j:], '\'')
				if k < 0 {
					return nil, fmt.Errorf("sql: unterminated string at %d", i)
				}
				j += k
				if j+1 < len(input) && input[j+1] == '\'' {
					j, escaped = j+2, true
					continue
				}
				break
			}
			text := input[i+1 : j]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{tokString, text, i})
			i = j + 1
		case unicode.IsDigit(r) || (r == '-' && i+1 < len(input) && isDigitAt(input, i+1)):
			j := i + size
			for j < len(input) {
				c, n := runeAt(input, j)
				if !unicode.IsDigit(c) && c != '.' && c != 'e' && c != 'E' &&
					!((c == '+' || c == '-') && (input[j-1] == 'e' || input[j-1] == 'E')) {
					break
				}
				j += n
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(r) || r == '_':
			j := i
			for j < len(input) {
				c, n := runeAt(input, j)
				if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
					break
				}
				j += n
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{tokKeyword, kw, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", r, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isDigitAt(s string, i int) bool {
	r, _ := runeAt(s, i)
	return unicode.IsDigit(r)
}
