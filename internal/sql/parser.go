package sql

import (
	"fmt"
	"strconv"
	"strings"

	"famedb/internal/types"
)

// Parse parses one SQL statement.
func Parse(input string) (Statement, error) {
	stmt, _, err := parse(input)
	return stmt, err
}

// parse parses one SQL statement and counts its `?` placeholders.
func parse(input string) (Statement, int, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, 0, err
	}
	// Optional trailing semicolon, then EOF.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, 0, fmt.Errorf("sql: unexpected %q after statement", p.peek().text)
	}
	return stmt, p.params, nil
}

type parser struct {
	toks []token
	pos  int
	// params counts `?` placeholders seen so far; operands record their
	// 1-based ordinal, which is also the binding position of Exec args.
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("sql: expected %s, found %q", kw, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("sql: expected %q, found %q", sym, t.text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %q", t.text)
	}
	return t.text, nil
}

func (p *parser) parseStmt() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("sql: expected a statement, found %q", t.text)
	}
	switch t.text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "EXPLAIN":
		return p.parseExplain()
	default:
		return nil, fmt.Errorf("sql: unsupported statement %s", t.text)
	}
}

func (p *parser) parseExplain() (Statement, error) {
	p.next() // EXPLAIN
	ex := Explain{}
	if p.peek().kind == tokKeyword && p.peek().text == "ANALYZE" {
		p.next()
		ex.Analyze = true
	}
	inner, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, nested := inner.(Explain); nested {
		return nil, fmt.Errorf("sql: cannot EXPLAIN an EXPLAIN")
	}
	ex.Stmt = inner
	return ex, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		tt := p.next()
		if tt.kind != tokKeyword {
			return nil, fmt.Errorf("sql: expected a type for column %s, found %q", colName, tt.text)
		}
		kind, err := types.KindByName(tt.text)
		if err != nil {
			return nil, err
		}
		col := ColumnDef{Name: colName, Kind: kind}
		if p.peek().kind == tokKeyword && p.peek().text == "PRIMARY" {
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		cols = append(cols, col)
		t := p.next()
		if t.kind == tokSymbol && t.text == "," {
			continue
		}
		if t.kind == tokSymbol && t.text == ")" {
			break
		}
		return nil, fmt.Errorf("sql: expected ',' or ')' in column list, found %q", t.text)
	}
	pkCount := 0
	for _, c := range cols {
		if c.PrimaryKey {
			pkCount++
		}
	}
	if pkCount > 1 {
		return nil, fmt.Errorf("sql: table %s declares %d primary keys", name, pkCount)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("sql: duplicate column %s", c.Name)
		}
		seen[c.Name] = true
	}
	return CreateTable{Table: name, Columns: cols}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return DropTable{Table: name}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := Insert{Table: name}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			t := p.next()
			if t.text == ")" {
				break
			}
			if t.text != "," {
				return nil, fmt.Errorf("sql: expected ',' or ')' in column list, found %q", t.text)
			}
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Operand
		for {
			v, err := p.operand()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			t := p.next()
			if t.text == ")" {
				break
			}
			if t.text != "," {
				return nil, fmt.Errorf("sql: expected ',' or ')' in value list, found %q", t.text)
			}
		}
		ins.Rows = append(ins.Rows, row)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := Select{Limit: -1}
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
	} else {
		for {
			if agg, ok, err := p.tryAggregate(); err != nil {
				return nil, err
			} else if ok {
				sel.Aggregates = append(sel.Aggregates, agg)
			} else {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				sel.Columns = append(sel.Columns, col)
			}
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = name
	if sel.Where, err = p.parseOptionalWhere(); err != nil {
		return nil, err
	}
	if p.peek().kind == tokKeyword && p.peek().text == "GROUP" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if sel.GroupBy, err = p.ident(); err != nil {
			return nil, err
		}
		if len(sel.Aggregates) == 0 {
			return nil, fmt.Errorf("sql: GROUP BY requires aggregates in the select list")
		}
		for _, c := range sel.Columns {
			if c != sel.GroupBy {
				return nil, fmt.Errorf("sql: column %s must be aggregated or grouped", c)
			}
		}
	} else if len(sel.Aggregates) > 0 && len(sel.Columns) > 0 {
		return nil, fmt.Errorf("sql: cannot mix aggregates and plain columns without GROUP BY")
	}
	if p.peek().kind == tokKeyword && p.peek().text == "ORDER" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if sel.OrderBy, err = p.ident(); err != nil {
			return nil, err
		}
		if t := p.peek(); t.kind == tokKeyword && (t.text == "ASC" || t.text == "DESC") {
			p.next()
			sel.Desc = t.text == "DESC"
		}
	}
	if p.peek().kind == tokKeyword && p.peek().text == "LIMIT" {
		p.next()
		t := p.next()
		if t.kind == tokSymbol && t.text == "?" {
			p.params++
			sel.LimitParam = p.params
			return sel, nil
		}
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: LIMIT needs a number, found %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := Update{Table: name, Set: map[string]Operand{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		v, err := p.operand()
		if err != nil {
			return nil, err
		}
		upd.Set[col] = v
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if upd.Where, err = p.parseOptionalWhere(); err != nil {
		return nil, err
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := Delete{Table: name}
	var werr error
	if del.Where, werr = p.parseOptionalWhere(); werr != nil {
		return nil, werr
	}
	return del, nil
}

// aggFuncs maps the recognized aggregate names.
var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount, "MIN": AggMin, "MAX": AggMax, "SUM": AggSum, "AVG": AggAvg,
}

// tryAggregate parses "FUNC ( col )" or "COUNT ( * )" if present.
func (p *parser) tryAggregate() (Aggregate, bool, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return Aggregate{}, false, nil
	}
	fn, isAgg := aggFuncs[strings.ToUpper(t.text)]
	if !isAgg {
		return Aggregate{}, false, nil
	}
	// Only treat it as an aggregate when followed by '(' — a column may
	// legitimately be named "count".
	if p.pos+1 >= len(p.toks) || p.toks[p.pos+1].text != "(" {
		return Aggregate{}, false, nil
	}
	p.next() // function name
	p.next() // (
	agg := Aggregate{Func: fn}
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		if fn != AggCount {
			return Aggregate{}, false, fmt.Errorf("sql: %s(*) is not supported; name a column", fn)
		}
		p.next()
		agg.Column = "*"
	} else {
		col, err := p.ident()
		if err != nil {
			return Aggregate{}, false, err
		}
		agg.Column = col
	}
	if err := p.expectSymbol(")"); err != nil {
		return Aggregate{}, false, err
	}
	return agg, true, nil
}

func (p *parser) parseOptionalWhere() ([]Condition, error) {
	if !(p.peek().kind == tokKeyword && p.peek().text == "WHERE") {
		return nil, nil
	}
	p.next()
	var conds []Condition
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		opTok := p.next()
		if opTok.kind != tokSymbol {
			return nil, fmt.Errorf("sql: expected comparison operator, found %q", opTok.text)
		}
		var op CompareOp
		switch opTok.text {
		case "=", "!=", "<", "<=", ">", ">=":
			op = CompareOp(opTok.text)
		default:
			return nil, fmt.Errorf("sql: unsupported operator %q", opTok.text)
		}
		v, err := p.operand()
		if err != nil {
			return nil, err
		}
		conds = append(conds, Condition{Column: col, Op: op, Value: v.Value, Param: v.Param})
		if p.peek().kind == tokKeyword && p.peek().text == "AND" {
			p.next()
			continue
		}
		break
	}
	return conds, nil
}

// operand parses a literal or a `?` placeholder, assigning placeholders
// their 1-based lexical ordinal.
func (p *parser) operand() (Operand, error) {
	if t := p.peek(); t.kind == tokSymbol && t.text == "?" {
		p.next()
		p.params++
		return Operand{Param: p.params}, nil
	}
	v, err := p.literal()
	if err != nil {
		return Operand{}, err
	}
	return lit(v), nil
}

func (p *parser) literal() (types.Value, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		return numberValue(t.text)
	case t.kind == tokString:
		return types.Str(t.text), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		return types.Bool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		return types.Bool(false), nil
	default:
		return types.Value{}, fmt.Errorf("sql: expected a literal, found %q", t.text)
	}
}

// numberValue converts a number token's text to a Value: a '.', 'e' or
// 'E' makes it a float, anything else an int.
func numberValue(text string) (types.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("sql: bad number %q", text)
		}
		return types.Float(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return types.Value{}, fmt.Errorf("sql: bad number %q", text)
	}
	return types.Int(n), nil
}
