package core

import (
	"strings"
	"testing"
)

const sampleDSL = `
# A small sample product line.
model Sample {
    mandatory Base "always present"
    optional Extra
    mandatory abstract Choice {
        alternative Red
        alternative Blue
    }
    mandatory abstract Pick {
        or Left
        or Right
    }
}
constraint Extra => Red
constraint !(Blue & Extra)
`

func TestParseModelBasics(t *testing.T) {
	m, err := ParseModel(sampleDSL)
	if err != nil {
		t.Fatalf("ParseModel: %v", err)
	}
	if m.Name != "Sample" {
		t.Fatalf("Name = %q", m.Name)
	}
	base := m.Feature("Base")
	if base == nil || base.Relation != Mandatory || base.Description != "always present" {
		t.Fatalf("Base parsed wrong: %+v", base)
	}
	choice := m.Feature("Choice")
	if choice == nil || !choice.Abstract {
		t.Fatal("Choice should be abstract")
	}
	red := m.Feature("Red")
	if red == nil || red.Relation != Alternative || red.Parent() != choice {
		t.Fatal("Red parsed wrong")
	}
	if len(m.Constraints()) != 2 {
		t.Fatalf("constraints = %d, want 2", len(m.Constraints()))
	}
	// Extra requires Red, excluding Blue; Blue+Extra impossible.
	c := m.NewConfiguration()
	if err := c.Select("Extra"); err != nil {
		t.Fatal(err)
	}
	if !c.Has("Red") || c.State("Blue") != Deselected {
		t.Fatalf("constraint propagation through parsed model failed: %s", c)
	}
}

func TestDSLRoundTrip(t *testing.T) {
	m1, err := ParseModel(sampleDSL)
	if err != nil {
		t.Fatal(err)
	}
	printed := m1.String()
	m2, err := ParseModel(printed)
	if err != nil {
		t.Fatalf("re-parse of printed model failed: %v\n%s", err, printed)
	}
	if got, want := m2.CountVariants(), m1.CountVariants(); got.Cmp(want) != 0 {
		t.Fatalf("round trip changed variant count: %v vs %v", got, want)
	}
	names1 := strings.Join(m1.SortedFeatureNames(), ",")
	names2 := strings.Join(m2.SortedFeatureNames(), ",")
	if names1 != names2 {
		t.Fatalf("round trip changed features:\n%s\n%s", names1, names2)
	}
	// Descriptions survive the round trip.
	if m2.Feature("Base").Description != "always present" {
		t.Fatal("description lost in round trip")
	}
}

func TestFAMEModelDSLRoundTrip(t *testing.T) {
	m1 := FAMEModel()
	m2, err := ParseModel(m1.String())
	if err != nil {
		t.Fatalf("re-parse of FAME model failed: %v", err)
	}
	if m1.CountVariants().Cmp(m2.CountVariants()) != 0 {
		t.Fatal("FAME model round trip changed variant count")
	}
}

func TestParseModelErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no model keyword", "feature X {}", `expected "model"`},
		{"missing name", "model", "missing model name"},
		{"bad relation", "model M { widget A }", "relation keyword"},
		{"unterminated block", "model M { optional A", "unexpected end"},
		{"bad constraint", "model M { optional A }\nconstraint A =>", "constraint"},
		{"unknown constraint ref", "model M { optional A }\nconstraint A => Zed", "unknown feature"},
		{"stray token", "model M { optional A }\nfoo", `expected "constraint"`},
	}
	for _, tc := range cases {
		_, err := ParseModel(tc.src)
		if err == nil {
			t.Errorf("%s: ParseModel succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestParseModelComments(t *testing.T) {
	m, err := ParseModel("model M { # comment\n optional A # trailing\n }")
	if err != nil {
		t.Fatalf("ParseModel with comments: %v", err)
	}
	if m.Feature("A") == nil {
		t.Fatal("feature after comment missing")
	}
}

func TestParseMultipleConstraints(t *testing.T) {
	src := `model M {
        optional A
        optional B
        optional C
    }
    constraint A => B
    constraint B => C`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewConfiguration()
	if err := c.Select("A"); err != nil {
		t.Fatal(err)
	}
	if !c.Has("B") || !c.Has("C") {
		t.Fatalf("transitive constraint propagation failed: %s", c)
	}
}

// FuzzParseModel: no text makes ParseModel panic, and every token the
// tokenizer returns is a piece of its input — a quoted string cut short
// by a trailing backslash must not reach past the end of the text.
func FuzzParseModel(f *testing.F) {
	f.Add(sampleDSL)
	f.Add(`model X { optional "quoted \" name" }`)
	f.Fuzz(func(t *testing.T, text string) {
		// Whatever parses prints as text that parses back to itself.
		if m, err := ParseModel(text); err == nil {
			out := m.String()
			m2, err := ParseModel(out)
			if err != nil {
				t.Fatalf("%q parsed, but its rendering %q does not: %v", text, out, err)
			}
			if again := m2.String(); again != out {
				t.Fatalf("%q renders as %q, which renders as %q", text, out, again)
			}
		}
		runes := string([]rune(text)) // invalid UTF-8 reads as U+FFFD
		for _, tok := range tokenizeDSL(text) {
			if !strings.Contains(runes, tok.text) {
				t.Fatalf("token %q is not part of the input %q", tok.text, text)
			}
		}
	})
}
