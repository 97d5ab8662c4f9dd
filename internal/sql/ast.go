package sql

import (
	"fmt"

	"famedb/internal/stats"
	"famedb/internal/types"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef defines one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Kind       types.Kind
	PrimaryKey bool
}

// CreateTable is CREATE TABLE.
type CreateTable struct {
	Table   string
	Columns []ColumnDef
}

// DropTable is DROP TABLE.
type DropTable struct{ Table string }

// Operand is a value position in a statement: either a literal or a
// `?` placeholder. Param is the placeholder's 1-based ordinal in the
// statement (lexical order); 0 means Value holds a literal.
type Operand struct {
	Value types.Value
	Param int
}

// lit wraps a literal value as an operand.
func lit(v types.Value) Operand { return Operand{Value: v} }

// resolve returns the operand's value given the bound arguments.
func (o Operand) resolve(args []types.Value) types.Value {
	if o.Param > 0 {
		return args[o.Param-1]
	}
	return o.Value
}

// Insert is INSERT INTO ... VALUES ....
type Insert struct {
	Table   string
	Columns []string // empty = all columns in schema order
	Rows    [][]Operand
}

// CompareOp is a comparison operator in a predicate.
type CompareOp string

// The supported comparison operators.
const (
	OpEq CompareOp = "="
	OpNe CompareOp = "!="
	OpLt CompareOp = "<"
	OpLe CompareOp = "<="
	OpGt CompareOp = ">"
	OpGe CompareOp = ">="
)

// Condition is one "col op operand" term; predicates are conjunctions
// of conditions. Param > 0 marks the right-hand side as the statement's
// Param-th placeholder; Value is then unset until binding.
type Condition struct {
	Column string
	Op     CompareOp
	Value  types.Value
	Param  int
}

// rhs returns the condition's right-hand side as an operand.
func (c Condition) rhs() Operand { return Operand{Value: c.Value, Param: c.Param} }

// AggFunc is an aggregate function name.
type AggFunc string

// The supported aggregates.
const (
	AggCount AggFunc = "COUNT"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
)

// Aggregate is one aggregate expression in a SELECT list.
type Aggregate struct {
	Func   AggFunc
	Column string // "*" only for COUNT
}

// String renders the aggregate as it heads its result column.
func (a Aggregate) String() string { return fmt.Sprintf("%s(%s)", a.Func, a.Column) }

// Select is SELECT ... FROM .... A select list is either plain columns
// (possibly *) or aggregates, not a mix.
type Select struct {
	Table      string
	Columns    []string // empty = * (when no aggregates)
	Aggregates []Aggregate
	Where      []Condition
	// GroupBy names the grouping column; aggregates are then computed
	// per group and the grouping column may appear in the select list.
	GroupBy string
	OrderBy string
	Desc    bool
	Limit   int // -1 = no limit
	// LimitParam marks LIMIT ? (1-based placeholder ordinal; 0 = the
	// literal Limit applies).
	LimitParam int
}

// Update is UPDATE ... SET ....
type Update struct {
	Table string
	Set   map[string]Operand
	Where []Condition
}

// Delete is DELETE FROM ....
type Delete struct {
	Table string
	Where []Condition
}

// Explain is EXPLAIN [ANALYZE] stmt (feature QueryStats): it renders
// the inner statement's plan, and with Analyze also executes it and
// reports the observed counters.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (CreateTable) stmt() {}
func (DropTable) stmt()   {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (Update) stmt()      {}
func (Delete) stmt()      {}
func (Explain) stmt()     {}

// verb is a statement's kind: it picks the statement's latch mode, its
// span and profile name (String) and its Statistics counter.
type verb uint8

const (
	verbCreate verb = iota
	verbDrop
	verbInsert
	verbSelect
	verbUpdate
	verbDelete
	// verbExplain latches exclusively, since ANALYZE executes the inner
	// statement, which may be DML; it has no counter of its own, the
	// plan it runs counts its access path.
	verbExplain
)

var verbNames = [...]string{"create", "drop", "insert", "select", "update", "delete", "explain"}

// verbCounters are the statement counters, one per verb but EXPLAIN.
var verbCounters = [...]stats.ID{stats.SQLCreates, stats.SQLDrops, stats.SQLInserts,
	stats.SQLSelects, stats.SQLUpdates, stats.SQLDeletes}

func (v verb) String() string { return verbNames[v] }

// stmtVerb is a statement's verb.
func stmtVerb(s Statement) (verb, error) {
	switch s.(type) {
	case CreateTable:
		return verbCreate, nil
	case DropTable:
		return verbDrop, nil
	case Insert:
		return verbInsert, nil
	case Select:
		return verbSelect, nil
	case Update:
		return verbUpdate, nil
	case Delete:
		return verbDelete, nil
	case Explain:
		return verbExplain, nil
	}
	return 0, fmt.Errorf("sql: unhandled statement %T", s)
}

// opHolds applies a comparison operator to a three-way compare result.
func opHolds(op CompareOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

func columnIndex(schema []ColumnDef, name string) int {
	for i, c := range schema {
		if c.Name == name {
			return i
		}
	}
	return -1
}
