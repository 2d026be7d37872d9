package ontology

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const tinySrc = `
# A minimal test ontology.
ontology Widget
entity Widget

lexicon Color { red green blue }

object Serial : one-to-one {
    type serial
    value ` + "`WD-[0-9]{4}`" + `
}
object Price : one-to-one {
    type price
    keyword ` + "`\\$`" + `
    value ` + "`\\$[0-9]+`" + `
}
object Shade : functional {
    type colorname
    value ` + "`{Color}`" + `
}
object Tag : many {
    type tagname
    keyword ` + "`tagged`" + `
}

relationship Sells : Widget [1] Price [1]
`

func TestParseTiny(t *testing.T) {
	o, err := Parse(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "Widget" || o.Entity != "Widget" {
		t.Errorf("name/entity = %q/%q", o.Name, o.Entity)
	}
	if len(o.ObjectSets) != 4 {
		t.Fatalf("object sets = %d, want 4", len(o.ObjectSets))
	}
	if got := o.ObjectSet("Serial"); got == nil || got.Cardinality != OneToOne {
		t.Errorf("Serial = %+v", got)
	}
	if got := o.ObjectSet("Shade"); got == nil || got.Cardinality != Functional {
		t.Errorf("Shade = %+v", got)
	}
	if got := o.ObjectSet("Tag"); got == nil || got.Cardinality != Many {
		t.Errorf("Tag = %+v", got)
	}
	if len(o.Relationships) != 1 || o.Relationships[0].From != "Widget" || o.Relationships[0].To != "Price" {
		t.Errorf("relationships = %+v", o.Relationships)
	}
}

func TestLexiconInterpolation(t *testing.T) {
	o := MustParse(tinySrc)
	shade := o.ObjectSet("Shade")
	pat := shade.Frame.ValuePatterns[0]
	for _, color := range []string{"red", "green", "blue"} {
		if !pat.MatchString(color) {
			t.Errorf("pattern %v should match %q", pat, color)
		}
	}
	if pat.MatchString("mauve") {
		t.Errorf("pattern %v should not match mauve", pat)
	}
}

func TestQuantifierBracesAreNotLexicons(t *testing.T) {
	o := MustParse(tinySrc)
	serial := o.ObjectSet("Serial")
	if !serial.Frame.ValuePatterns[0].MatchString("WD-1234") {
		t.Error("quantifier {4} was mangled")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown declaration", "ontology X\nentity X\nfrobnicate Y", "unknown declaration"},
		{"bad cardinality", "ontology X\nentity X\nobject A : sometimes {\ntype t\nkeyword `k`\n}", "unknown cardinality"},
		{"unknown lexicon", "ontology X\nentity X\nobject A : many {\nvalue `{Nope}`\n}", "unknown lexicon"},
		{"missing entity", "ontology X\nobject A : many {\nkeyword `k`\n}", "missing entity"},
		{"no object sets", "ontology X\nentity X", "no object sets"},
		{"empty frame", "ontology X\nentity X\nobject A : many {\ntype t\n}", "neither keywords nor value"},
		{"duplicate object", "ontology X\nentity X\nobject A : many {\nkeyword `k`\n}\nobject A : many {\nkeyword `k`\n}", "duplicate object set"},
		{"bad relationship ref", "ontology X\nentity X\nobject A : many {\nkeyword `k`\n}\nrelationship R : X [1] B [1]", "unknown set"},
		{"bad regexp", "ontology X\nentity X\nobject A : many {\nkeyword `[`\n}", "bad pattern"},
		{"unterminated body", "ontology X\nentity X\nobject A : many {\nkeyword `k`", "unterminated"},
		{"unquoted pattern", "ontology X\nentity X\nobject A : many {\nkeyword k\n}", "backquoted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestRecordIdentifyingFieldsTiny(t *testing.T) {
	o := MustParse(tinySrc)
	fields, ok := o.RecordIdentifyingFields()
	if !ok {
		t.Fatal("expected fields")
	}
	// Order: one-to-one keyword (Price), then one-to-one values with unique
	// types (Serial), then functional values (Shade). Tag is many: excluded.
	var names []string
	for _, f := range fields {
		names = append(names, f.Set.Name)
	}
	want := "Price Serial Shade"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("fields = %q, want %q", got, want)
	}
	if !fields[0].UseKeywords || fields[1].UseKeywords || fields[2].UseKeywords {
		t.Errorf("UseKeywords flags wrong: %+v", fields)
	}
}

func TestRecordIdentifyingFieldsRequiresThree(t *testing.T) {
	src := "ontology X\nentity X\nobject A : one-to-one {\nkeyword `k`\n}\nobject B : many {\nkeyword `k2`\n}"
	o := MustParse(src)
	if _, ok := o.RecordIdentifyingFields(); ok {
		t.Error("expected no fields with fewer than 3 candidates")
	}
}

func TestRecordIdentifyingFieldsSharedTypeExcluded(t *testing.T) {
	src := `
ontology X
entity X
object A : one-to-one {
    type date
    value ` + "`a`" + `
}
object B : one-to-one {
    type date
    value ` + "`b`" + `
}
object C : one-to-one {
    keyword ` + "`c`" + `
}
object D : one-to-one {
    keyword ` + "`d`" + `
}
object E : one-to-one {
    keyword ` + "`e`" + `
}
`
	o := MustParse(src)
	fields, ok := o.RecordIdentifyingFields()
	if !ok {
		t.Fatal("expected fields")
	}
	for _, f := range fields {
		if f.Set.Name == "A" || f.Set.Name == "B" {
			t.Errorf("shared-type value field %s selected", f.Set.Name)
		}
	}
}

func TestRecordIdentifyingFieldsTwentyPercentCap(t *testing.T) {
	// 25 object sets → cap = 5.
	var b strings.Builder
	b.WriteString("ontology X\nentity X\n")
	for i := 0; i < 25; i++ {
		name := "F" + string(rune('A'+i))
		b.WriteString("object " + name + " : one-to-one {\nkeyword `k" + name + "`\n}\n")
	}
	o := MustParse(b.String())
	fields, ok := o.RecordIdentifyingFields()
	if !ok {
		t.Fatal("expected fields")
	}
	if len(fields) != 5 {
		t.Errorf("field count = %d, want 5 (20%% of 25)", len(fields))
	}
}

// TestRecordIdentifyingFieldsWarmCallAllocatesNothing: the selection is
// made once per ontology and shared, so OM's per-document calls cost no
// allocation.
func TestRecordIdentifyingFieldsWarmCallAllocatesNothing(t *testing.T) {
	for _, src := range []string{tinySrc, ObituarySrc,
		"ontology X\nentity X\nobject A : one-to-one {\nkeyword `k`\n}"} {
		o := MustParse(src)
		first, firstOK := o.RecordIdentifyingFields()
		if allocs := testing.AllocsPerRun(100, func() { o.RecordIdentifyingFields() }); allocs != 0 {
			t.Errorf("%s: warm call allocates %.0f times, want 0", o.Name, allocs)
		}
		again, ok := o.RecordIdentifyingFields()
		if ok != firstOK || len(again) != len(first) || len(first) > 0 && &again[0] != &first[0] {
			t.Errorf("%s: warm call returned a different selection", o.Name)
		}
	}
}

// TestDiscoveryRuleSetHoldsOnlyIndicatorRules: the discovery rule set is,
// per record-identifying field in order, that field's keyword rules when it
// is keyword-indicated and its constant rules otherwise, each mapped to its
// field.
func TestDiscoveryRuleSetHoldsOnlyIndicatorRules(t *testing.T) {
	for _, name := range append(BuiltinNames(), "tiny", "short") {
		var o *Ontology
		switch name {
		case "tiny":
			o = MustParse(tinySrc)
		case "short":
			o = MustParse("ontology X\nentity X\nobject A : one-to-one {\nkeyword `k`\n}")
		default:
			o = Builtin(name)
		}
		fields, ok := o.RecordIdentifyingFields()
		rs := o.DiscoveryRuleSet()
		var want []string
		for i, f := range fields {
			patterns, kind := f.Set.Frame.ValuePatterns, ConstantRule
			if f.UseKeywords {
				patterns, kind = f.Set.Frame.KeywordPatterns, KeywordRule
			}
			for _, p := range patterns {
				want = append(want, fmt.Sprintf("%d %s/%s %s", i, f.Set.Name, kind, p))
			}
		}
		var got []string
		for i, r := range rs.Rules {
			if r.Plan == nil {
				t.Errorf("%s: rule %s has no scan plan", name, r.Descriptor())
			}
			got = append(got, fmt.Sprintf("%d %s %s", rs.Field[i], r.Descriptor(), r.Pattern))
		}
		if !reflect.DeepEqual(got, want) || !ok && len(rs.Rules) != 0 {
			t.Errorf("%s: discovery rules\n got %q\nwant %q", name, got, want)
		}
		if len(rs.ScanOrder) != len(rs.Rules) {
			t.Errorf("%s: scan order covers %d of %d rules", name, len(rs.ScanOrder), len(rs.Rules))
		}
		if ok && len(rs.Rules) >= len(o.Rules()) {
			t.Errorf("%s: discovery runs %d rules, the full set %d", name, len(rs.Rules), len(o.Rules()))
		}
	}
}

func TestBuiltinOntologiesParseAndValidate(t *testing.T) {
	for _, name := range BuiltinNames() {
		o := Builtin(name)
		if o == nil {
			t.Fatalf("builtin %s missing", name)
		}
		if err := o.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
		fields, ok := o.RecordIdentifyingFields()
		if !ok {
			t.Errorf("builtin %s: no record-identifying fields", name)
			continue
		}
		if len(fields) != 3 {
			t.Errorf("builtin %s: %d record-identifying fields, want 3", name, len(fields))
		}
	}
	if Builtin("nonsense") != nil {
		t.Error("unknown builtin should be nil")
	}
}

func TestBuiltinRecordIdentifyingFieldChoices(t *testing.T) {
	want := map[string][]string{
		"obituary": {"DeathDate", "FuneralService", "Interment"},
		"carad":    {"Price", "Year", "Phone"},
		"jobad":    {"HowToApply", "ContactEmail", "JobCode"},
		"course":   {"Credits", "Instructor", "CourseCode"},
	}
	for name, wantFields := range want {
		fields, ok := Builtin(name).RecordIdentifyingFields()
		if !ok {
			t.Fatalf("%s: no fields", name)
		}
		for i, w := range wantFields {
			if fields[i].Set.Name != w {
				t.Errorf("%s field %d = %s, want %s", name, i, fields[i].Set.Name, w)
			}
		}
	}
}

func TestObituaryOntologyMatchesFigure2Phrases(t *testing.T) {
	o := Builtin("obituary")
	cases := []struct {
		set    string
		sample string
	}{
		{"DeathDate", "died on"},
		{"DeathDate", "passed away"},
		{"FuneralService", "Funeral services"},
		{"FuneralService", "Services will be held"},
		{"Interment", "Interment"},
	}
	for _, c := range cases {
		set := o.ObjectSet(c.set)
		matched := false
		for _, p := range set.Frame.KeywordPatterns {
			if p.MatchString(c.sample) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s keywords do not match %q", c.set, c.sample)
		}
	}
}

func TestSchemeGeneration(t *testing.T) {
	o := MustParse(tinySrc)
	s := o.Scheme()
	if s.Entity.Name != "Widget" {
		t.Errorf("entity table = %s", s.Entity.Name)
	}
	// id + Serial + Price + Shade (Tag is many-valued).
	if len(s.Entity.Columns) != 4 {
		t.Fatalf("entity columns = %+v, want 4", s.Entity.Columns)
	}
	if s.Entity.Columns[0].Name != "widget_id" {
		t.Errorf("key column = %s", s.Entity.Columns[0].Name)
	}
	var shade ColumnSpec
	for _, c := range s.Entity.Columns {
		if c.Name == "Shade" {
			shade = c
		}
	}
	if !shade.Nullable {
		t.Error("functional column should be nullable")
	}
	if len(s.ManyTables) != 1 || s.ManyTables[0].Name != "Widget_Tag" {
		t.Errorf("many tables = %+v", s.ManyTables)
	}
	if got := len(s.Tables()); got != 2 {
		t.Errorf("Tables() = %d, want 2", got)
	}
}

func TestRulesGeneration(t *testing.T) {
	o := MustParse(tinySrc)
	rules := o.Rules()
	// Serial: 1 value; Price: 1 keyword + 1 value; Shade: 1 value; Tag: 1 keyword.
	if len(rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(rules))
	}
	if rules[0].Descriptor() != "Serial/constant" {
		t.Errorf("rule 0 descriptor = %s", rules[0].Descriptor())
	}
	// Keyword rules precede constant rules per object set.
	if rules[1].Descriptor() != "Price/keyword" || rules[2].Descriptor() != "Price/constant" {
		t.Errorf("price rules = %s, %s", rules[1].Descriptor(), rules[2].Descriptor())
	}
}

func TestCardinalityString(t *testing.T) {
	if OneToOne.String() != "one-to-one" || Functional.String() != "functional" || Many.String() != "many" {
		t.Error("cardinality strings wrong")
	}
	if got := Cardinality(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown cardinality = %q", got)
	}
}
