package ontology

import (
	"fmt"
	"reflect"
	"regexp"
	"regexp/syntax"
	"sort"
	"strings"
	"testing"
)

// gateLiterals is the necessary-literal set compilePlan derives for a
// pattern, whichever mode the plan takes.
func gateLiterals(pattern string) []string {
	tree, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		panic(err)
	}
	lits, _ := necessaryLiterals(tree)
	return lits
}

func TestGateLiterals(t *testing.T) {
	cases := []struct {
		pattern string
		want    []string // nil = no gate
	}{
		{"died on|passed away", []string{"died on", "passed away"}},
		{"[Ff]uneral services", []string{"uneral services"}},
		{"Interment|Burial|Entombment|[Cc]remation", []string{"Interment", "Burial", "Entombment", "remation"}},
		// Concat picks the sub-expression with the longest weakest literal.
		{`born .{0,24}\bin [A-Z][a-z]+`, []string{"born "}},
		// Bare character classes have no required literal.
		{"[0-9]{1,3}", nil},
		{`[A-Z][a-z]+(?: [A-Z]\.?| [A-Z][a-z]+)? [A-Z][a-z]+`, []string{" "}},
		// A factored alternation gates on its whole words.
		{`[0-9]+ (?:miles|mi\.)`, []string{" miles", " mi."}},
		// A case-folded literal cannot be matched case-sensitively.
		{"(?i)asking", nil},
		// A one-byte literal gates too.
		{`\$[0-9]+`, []string{"$"}},
		// Repeats with min >= 1 still require their body.
		{"(?:abc){2,5}", []string{"abc"}},
		// Star makes the body optional: no requirement.
		{"(?:abc)*x?", nil},
	}
	for _, c := range cases {
		got := gateLiterals(c.pattern)
		sort.Strings(got)
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("gateLiterals(%q) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

// TestGateIsNecessary: for every built-in ontology pattern with a gate, any
// text the pattern matches must contain one of the literals — otherwise the
// recognizer would silently drop entries.
func TestGateIsNecessary(t *testing.T) {
	samples := []string{
		"died on March 3, 1998", "passed away Friday", "Funeral services",
		"Services will be held", "A memorial service", "Interment, City Cemetery",
		"Brian Fielding Frost", "age 84", "was born on January 1, 1912",
		"born and raised in Provo", "LARKIN MORTUARY", "Friends may call",
		"Wasatch Lawn Cemetery", "services Saturday", "survived by his wife",
		"married", "church", "Asking $4,500", "1994 Ford", "(801) 555-1234",
		"automatic transmission, air conditioning", "excellent condition",
		"123K miles", "red", "Salary DOE", "BS degree required",
		"contact hr@example.com", "3 credit hours", "MWF 9:00am", "Room 101",
	}
	for _, name := range BuiltinNames() {
		ont := Builtin(name)
		for _, r := range ont.Rules() {
			gates := gateLiterals(r.Pattern.String())
			if gates == nil {
				continue
			}
			for _, s := range samples {
				for _, m := range r.Pattern.FindAllString(s, -1) {
					hit := false
					for _, l := range gates {
						if strings.Contains(s, l) {
							hit = true
							break
						}
					}
					if !hit {
						t.Errorf("%s rule %s: match %q in %q escapes gate %v",
							name, r.Descriptor(), m, s, gates)
					}
				}
			}
		}
	}
}

// TestBuiltinScanPlans pins every builtin rule's scan plan: its mode, its
// verifier ("dfa" or "regexp"), its anchors (literal@offset) and its gates.
// An ontology edit that sends a rule back to the whole-chunk regexp or to
// the regexp verifier, or weakens its anchors, fails here instead of
// silently costing the recognizer its speed.
func TestBuiltinScanPlans(t *testing.T) {
	cases := []struct {
		ontology, rule string
		mode           ScanMode
		verifier       string
		anchors, gates []string
	}{
		{"obituary", "DeathDate/keyword", ScanAnchored, "dfa", []string{"died on@0", "passed away@0"}, nil},
		{"obituary", "DeathDate/constant", ScanAnchored, "dfa", []string{"January @0", "February @0", "March @0", "April @0", "May @0", "June @0", "July @0", "August @0", "September @0", "October @0", "November @0", "December @0"}, nil},
		{"obituary", "FuneralService/keyword", ScanAnchored, "dfa", []string{"uneral services@1", "Services will be held@0", "A memorial service@0"}, nil},
		{"obituary", "Interment/keyword", ScanAnchored, "dfa", []string{"Interment@0", "Burial@0", "Entombment@0", "remation@1"}, nil},
		{"obituary", "DeceasedName/constant", ScanFirstByte, "dfa", nil, nil},
		{"obituary", "Age/keyword", ScanAnchored, "dfa", []string{"age @0"}, nil},
		{"obituary", "Age/constant", ScanFirstByte, "dfa", nil, nil},
		{"obituary", "BirthDate/keyword", ScanAnchored, "dfa", []string{"was born on@0", "was born@0"}, nil},
		{"obituary", "BirthDate/constant", ScanAnchored, "dfa", []string{"January @0", "February @0", "March @0", "April @0", "May @0", "June @0", "July @0", "August @0", "September @0", "October @0", "November @0", "December @0"}, nil},
		{"obituary", "BirthPlace/keyword", ScanAnchored, "dfa", []string{"born @0"}, nil},
		{"obituary", "FuneralHome/constant", ScanFirstByte, "regexp", nil, []string{"MORTUARY", "CHAPEL", "FUNERAL HOME"}},
		{"obituary", "ViewingTime/keyword", ScanAnchored, "dfa", []string{"riends may call@1", "isitation@1"}, nil},
		{"obituary", "Cemetery/constant", ScanFirstByte, "dfa", nil, []string{"emetery"}},
		{"obituary", "FuneralDate/keyword", ScanAnchored, "regexp", []string{"services @0"}, nil},
		{"obituary", "FuneralDate/constant", ScanAnchored, "dfa", []string{"January @0", "February @0", "March @0", "April @0", "May @0", "June @0", "July @0", "August @0", "September @0", "October @0", "November @0", "December @0"}, nil},
		{"obituary", "Relative/keyword", ScanAnchored, "dfa", []string{"survived by@0", "preceded in death by@0"}, nil},
		{"obituary", "Spouse/keyword", ScanAnchored, "dfa", []string{"married@0", "husband@0", "wife@0"}, nil},
		{"obituary", "Church/keyword", ScanAnchored, "dfa", []string{"church@0", "parish@0", "ward@0"}, nil},
		{"carad", "Price/keyword", ScanAnchored, "dfa", []string{"sking@1", "riced at@1"}, nil},
		{"carad", "Price/constant", ScanAnchored, "dfa", []string{"$@0"}, nil},
		{"carad", "Year/constant", ScanAnchored, "dfa", []string{"19@0"}, nil},
		{"carad", "Phone/constant", ScanFirstByte, "dfa", nil, []string{"-"}},
		{"carad", "Make/constant", ScanAnchored, "dfa", []string{"Ford@0", "Chevrolet@0", "Chevy@0", "Toyota@0", "Honda@0", "Dodge@0", "Nissan@0", "Buick@0", "Pontiac@0", "Chrysler@0", "Jeep@0", "Mercury@0", "Oldsmobile@0", "Plymouth@0", "Subaru@0", "Mazda@0", "Volkswagen@0", "BMW@0", "Cadillac@0", "Saturn@0"}, nil},
		{"carad", "Model/constant", ScanAnchored, "dfa", []string{"Taurus@0", "Escort@0", "Mustang@0", "Civic@0", "Accord@0", "Corolla@0", "Camry@0", "Cavalier@0", "Corsica@0", "Lumina@0", "Caravan@0", "Neon@0", "Sentra@0", "Altima@0", "LeSabre@0", "Regal@0", "Jetta@0", "Passat@0", "Legacy@0", "Protege@0"}, nil},
		{"carad", "Mileage/keyword", ScanFirstByte, "dfa", nil, []string{" miles", " mi.", "low miles"}},
		{"carad", "Mileage/constant", ScanFirstByte, "dfa", nil, nil},
		{"carad", "Color/constant", ScanAnchored, "dfa", []string{"red@0", "blue@0", "white@0", "black@0", "green@0", "silver@0", "gold@0", "maroon@0", "teal@0", "tan@0", "gray@0", "burgundy@0"}, nil},
		{"carad", "Transmission/keyword", ScanAnchored, "dfa", []string{"automatic@0", "5-speed@0", "4-speed@0", "manual@0", "auto trans@0"}, nil},
		{"carad", "Condition/keyword", ScanAnchored, "dfa", []string{"excellent condition@0", "good condition@0", "runs great@0", "must sell@0", "like new@0"}, nil},
		{"carad", "Feature/keyword", ScanAnchored, "dfa", []string{"A/C@0", "air@0", "power windows@0", "power locks@0", "power steering@0", "CD@0", "cassette@0", "sunroof@0", "leather@0", "cruise@0"}, nil},
		{"carad", "Seller/keyword", ScanAnchored, "dfa", []string{"all @1"}, nil},
		{"jobad", "HowToApply/keyword", ScanAnchored, "dfa", []string{"end resume@1", "pply to@1", "pply at@1", "pply online@1", "ax resume@1", "EOE@0"}, nil},
		{"jobad", "ContactEmail/constant", ScanFirstByte, "dfa", nil, []string{"@"}},
		{"jobad", "JobCode/constant", ScanAnchored, "dfa", []string{"Job@0", "Ref@0"}, nil},
		{"jobad", "JobTitle/constant", ScanAnchored, "dfa", []string{"Programmer/Analyst@0", "Programmer@0", "Software Engineer@0", "Systems Analyst@0", "System Analyst@0", "Database Administrator@0", "Web Developer@0", "Network Administrator@0", "Project Manager@0", "Help Desk Technician@0"}, nil},
		{"jobad", "Employer/keyword", ScanFirstByte, "dfa", nil, []string{" Inc", " Corp", " LLC", " Systems", " Technologies", " Consulting"}},
		{"jobad", "Salary/keyword", ScanAnchored, "dfa", []string{"$@0", "salary@0", "DOE@0", "competitive@0"}, nil},
		{"jobad", "Location/keyword", ScanAnchored, "dfa", []string{"located in@0", "position in @0"}, nil},
		{"jobad", "Skill/constant", ScanAnchored, "dfa", []string{"Java@0", "C@0", "COBOL@0", "SQL@0", "Oracle@0", "Sybase@0", "UNIX@0", "Windows@0", "HTML@0", "Perl@0", "CGI@0", "Visual@0", "PowerBuilder@0", "Informix@0", "DB2@0", "TCP/IP@0", "Novell@0"}, nil},
		{"jobad", "Experience/keyword", ScanFirstByte, "dfa", nil, []string{" experience"}},
		{"jobad", "ContactPhone/constant", ScanFirstByte, "dfa", nil, []string{"-"}},
		{"jobad", "Degree/keyword", ScanAnchored, "dfa", []string{"BS@0", "MS@0", "achelor@1", "aster@1", "degree required@0"}, nil},
		{"course", "Credits/keyword", ScanFirstByte, "dfa", nil, []string{" credit hours", " credits", " cr.", " sem. hrs"}},
		{"course", "Instructor/keyword", ScanAnchored, "dfa", []string{"Instructor:@0", "Taught by@0"}, nil},
		{"course", "CourseCode/constant", ScanAnchored, "dfa", []string{"CS@0", "MATH@0", "PHYS@0", "CHEM@0", "ENGL@0", "HIST@0", "BIOL@0", "ECON@0", "PSYCH@0", "PHIL@0", "STAT@0", "GEOG@0"}, nil},
		{"course", "CourseTitle/constant", ScanAnchored, "dfa", []string{"Introduction to @0", "Advanced @0", "Principles of @0", "Topics in @0", "Foundations of @0", "Seminar in @0"}, nil},
		{"course", "Schedule/keyword", ScanAnchored, "dfa", []string{"MWF@0", "TTh@0", "MTWThF@0", "Daily at@0"}, nil},
		{"course", "Room/keyword", ScanAnchored, "dfa", []string{"Room @0", "Bldg@0"}, nil},
		{"course", "Prerequisite/keyword", ScanAnchored, "dfa", []string{"Prerequisites:@0", "Prerequisite:@0"}, nil},
		{"course", "Enrollment/keyword", ScanAnchored, "dfa", []string{"limited to @0", "enrollment cap@0"}, nil},
		{"course", "Term/keyword", ScanAnchored, "dfa", []string{"Fall@0", "Winter@0", "Spring@0", "Summer@0"}, nil},
		{"course", "ExamInfo/keyword", ScanAnchored, "dfa", []string{"final exam@0", "midterm@0"}, nil},
	}
	var got []string
	for _, name := range BuiltinNames() {
		for _, r := range Builtin(name).Rules() {
			got = append(got, name+" "+r.Descriptor())
		}
	}
	if len(got) != len(cases) {
		t.Fatalf("builtin rules = %d, pinned = %d: %v", len(got), len(cases), got)
	}
	for _, c := range cases {
		var plan *ScanPlan
		for _, r := range Builtin(c.ontology).Rules() {
			if r.Descriptor() == c.rule {
				plan = r.Plan
			}
		}
		if plan == nil {
			t.Errorf("%s %s: no such rule", c.ontology, c.rule)
			continue
		}
		var anchors []string
		for _, a := range plan.Anchors {
			anchors = append(anchors, fmt.Sprintf("%s@%d", a.Literal, a.Offset))
		}
		verifier := "regexp"
		if plan.DFA != nil {
			verifier = "dfa"
		}
		if plan.Mode != c.mode || verifier != c.verifier || !reflect.DeepEqual(anchors, c.anchors) || !reflect.DeepEqual(plan.Gates, c.gates) {
			t.Errorf("%s %s: plan %s verifier %s anchors %q gates %q, want %s %s anchors %q gates %q",
				c.ontology, c.rule, plan.Mode, verifier, anchors, plan.Gates, c.mode, c.verifier, c.anchors, c.gates)
		}
	}
}

// TestScanPlanModes: the planner anchors or first-byte-scans only what it
// can prove equal to FindAllStringIndex, and falls back otherwise.
func TestScanPlanModes(t *testing.T) {
	cases := []struct {
		pattern      string
		mode         ScanMode
		wordBoundary bool
		maxWidth     int
	}{
		{`died on|passed away`, ScanAnchored, false, 11},
		{`\bfoo\b`, ScanAnchored, true, 3},
		{`[0-9]{1,3}`, ScanFirstByte, false, 3},
		{`[a-z]+@x`, ScanFirstByte, false, -1},
		{`x.{0,3}y`, ScanAnchored, false, 14},
		{`[Ff]oo`, ScanAnchored, false, 3}, // parsed as a folded F: ASCII-only
		{`a*`, ScanFallback, false, 0},     // nullable
		{`(?i)asking`, ScanFallback, false, 0},
		{`(?i)k`, ScanFallback, false, 0}, // also the Kelvin sign
		{`[éa]x`, ScanFallback, false, 0}, // a non-ASCII class
		{`foo$`, ScanFallback, false, 0},
		{`^foo`, ScanFallback, false, 0},
		{`x?\by`, ScanFallback, false, 0}, // \b can sit at the match start
		{`\Bx`, ScanFallback, false, 0},
		{`.x`, ScanFallback, false, 0}, // any-char first: no first-byte set
		{`\x{FFFD}`, ScanFallback, false, 0},
	}
	for _, c := range cases {
		p := compilePlan(regexp.MustCompile(c.pattern))
		if p.Mode != c.mode {
			t.Errorf("%q: mode %s, want %s", c.pattern, p.Mode, c.mode)
			continue
		}
		if p.Mode != ScanFallback && (p.WordBoundary != c.wordBoundary || p.MaxWidth != c.maxWidth) {
			t.Errorf("%q: word boundary %v max width %d, want %v %d",
				c.pattern, p.WordBoundary, p.MaxWidth, c.wordBoundary, c.maxWidth)
		}
	}
}

// TestLiteralIndexOverlappingHits: the automaton reports every literal
// ending at each byte, including those found only through suffix links.
func TestLiteralIndexOverlappingHits(t *testing.T) {
	o := MustParse("ontology X\nentity X\nobject A : one-to-one {\nkeyword `she|he|hers|his`\n}")
	x := o.RuleSet().Literals
	var got []string
	text := "ushers and his"
	st := int32(0)
	for i := 0; i < len(text); i++ {
		st = x.Next(st, text[i])
		for _, u := range x.Uses(st) {
			got = append(got, fmt.Sprintf("%d:%s", i, text[i+1-int(u.Back):i+1]))
		}
	}
	sort.Strings(got)
	want := []string{"13:his", "3:he", "3:she", "5:hers"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hits = %v, want %v", got, want)
	}
}
