package htmlparse

// Atom is a tag name's small dense integer ID. Every name in the built-in
// table has a fixed atom; the tokenizer numbers any other name per document
// (see AtomTable), so an atom means the same name only within one parse.
// The zero Atom is no atom: a token or node built by hand carries it, and
// resolves its atom by name (Lookup).
type Atom int32

// builtinNames is the built-in name table, indexed by atom (index 0 is
// the zero Atom). Its order carries two of the tag rules: the names from
// "area" through "wbr" are the void elements, and those from "script"
// through "plaintext" the raw-text elements. The implied-close
// participants come first: the rule table records which open elements an
// arriving tag closes as a bit per atom, so every atom an implied close
// can name must be below 16.
var builtinNames = [...]string{
	"",
	// Optional-end-tag participants (ImpliedClose).
	"li", "p", "option", "colgroup", "dt", "dd", "td", "th", "tr",
	"thead", "tbody", "tfoot",
	// Voids: HTML 3.2/4.0 usage (the paper's era) plus the HTML5 list.
	"area", "base", "basefont", "bgsound", "br", "col", "embed", "frame",
	"hr", "img", "input", "isindex", "keygen", "link", "meta", "param",
	"source", "spacer", "track", "wbr",
	// Raw-text elements.
	"script", "style", "textarea", "title", "xmp", "plaintext",
	// Common structural names.
	"table", "html", "head", "body", "div", "span", "a", "b", "i", "u",
	"em", "strong", "font", "center", "ul", "ol", "dl", "h1", "h2", "h3",
	"h4", "h5", "h6", "form", "select", "blockquote", "pre", "tt", "small",
	"big", "strike", "code", "address", "caption", "label", "fieldset",
	"article", "section", "nav", "header", "footer", "main", "aside",
	"sup", "sub", "nobr", "cite", "dfn", "kbd", "samp", "var", "abbr",
	"acronym", "del", "ins", "q", "s", "map", "object", "iframe",
	"frameset", "noframes", "noscript", "menu", "dir", "legend",
	"optgroup", "button", "figure", "figcaption", "time", "mark",
}

// NumBuiltinAtoms is one past the highest built-in atom: the first atom an
// AtomTable gives a name outside the built-in table.
const NumBuiltinAtoms = Atom(len(builtinNames))

// The tag rules, one entry per built-in atom. closes is a bit set over
// atoms: bit k set means the tag, arriving, closes an open element whose
// atom is k.
const (
	ruleVoid = 1 << iota
	ruleRawText
)

type tagRule struct {
	flags  uint8
	closes uint16
}

var rules [NumBuiltinAtoms]tagRule

// atomSlots is the open-addressed hash index of the built-in names.
const atomSlotBits = 9

var atomSlots [1 << atomSlotBits]Atom

func init() {
	for a := Atom(1); a < NumBuiltinAtoms; a++ {
		name := builtinNames[a]
		if Lookup(name) != 0 {
			panic("htmlparse: duplicate built-in name " + name)
		}
		i := atomHash(name)
		for atomSlots[i] != 0 {
			i = (i + 1) & (1<<atomSlotBits - 1)
		}
		atomSlots[i] = a
	}
	for a := Lookup("area"); a <= Lookup("wbr"); a++ {
		rules[a].flags |= ruleVoid
	}
	for a := Lookup("script"); a <= Lookup("plaintext"); a++ {
		rules[a].flags |= ruleRawText
	}
	// The HTML 3.2/4.0 optional-end-tag rules: arriving tag → the open
	// elements it closes. No rule closes a <table>, so the implied-close
	// search stops there: an arriving <tr> never closes a <td> of an outer
	// table.
	for arriving, open := range map[string][]string{
		"li": {"li"}, "p": {"p"}, "option": {"option"}, "colgroup": {"colgroup"},
		"dt": {"dt", "dd"}, "dd": {"dt", "dd"},
		"td": {"td", "th"}, "th": {"td", "th"},
		"tr": {"td", "th", "tr"}, "thead": {"td", "th", "tr"},
		"tbody": {"td", "th", "tr", "thead"},
		"tfoot": {"td", "th", "tr", "tbody"},
	} {
		for _, o := range open {
			k := Lookup(o)
			if k >= 16 {
				panic("htmlparse: implied-close participant " + o + " has atom >= 16")
			}
			rules[Lookup(arriving)].closes |= 1 << k
		}
	}
}

// atomHash picks a name's first slot in atomSlots from its length and its
// first and last bytes. OR-ing 0x20 lowercases ASCII letters and leaves the
// digits and punctuation of built-in names as they are, so a name hashes
// like its lowercase form and one hash serves exact and folded lookups.
func atomHash(name string) uint32 {
	key := uint32(name[0]|0x20)<<16 | uint32(name[len(name)-1]|0x20)<<8 | uint32(len(name))
	return key * 2654435761 >> (32 - atomSlotBits)
}

// lookup finds name in the built-in table, matching under ASCII case
// folding when fold is set.
func lookup(name string, fold bool) Atom {
	if name == "" {
		return 0
	}
	for i := atomHash(name); ; i = (i + 1) & (1<<atomSlotBits - 1) {
		a := atomSlots[i]
		if a == 0 {
			return 0
		}
		if b := builtinNames[a]; len(b) == len(name) && (fold && equalFoldLower(name, b) || !fold && b == name) {
			return a
		}
	}
}

// equalFoldLower reports whether s equals the lowercase ASCII name lower
// under ASCII case folding; the lengths are already equal.
func equalFoldLower(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// Lookup returns the built-in atom of name, matched exactly, or 0 when
// name is not in the built-in table.
func Lookup(name string) Atom { return lookup(name, false) }

// LookupFold is Lookup under ASCII case folding: the atom HTML gives a raw
// tag name such as "TD".
func LookupFold(name string) Atom { return lookup(name, true) }

// String returns a built-in atom's name, and "" for any other atom.
func (a Atom) String() string {
	if a > 0 && a < NumBuiltinAtoms {
		return builtinNames[a]
	}
	return ""
}

func (a Atom) rule() tagRule {
	if a > 0 && a < NumBuiltinAtoms {
		return rules[a]
	}
	return tagRule{}
}

// Void reports whether the atom names a void element — one with no
// end-tag and therefore no region of its own beyond the tag itself. The
// set reflects HTML 3.2/4.0 usage (the paper's era) plus the modern HTML5
// void list.
func (a Atom) Void() bool { return a.rule().flags&ruleVoid != 0 }

// RawText reports whether the element's content is not parsed as markup
// (e.g. script).
func (a Atom) RawText() bool { return a.rule().flags&ruleRawText != 0 }

// ImpliedClose reports whether an arriving start-tag implicitly closes the
// innermost open element. This encodes the HTML 3.2/4.0 optional-end-tag
// rules that 1998-era documents rely on (<li> items, <p> runs, table cells
// without </td>): the paper's rule that a region with no end-tag ends
// "just before the next tag", for the tags where that behaviour is
// standard.
func ImpliedClose(arriving, open Atom) bool {
	return open > 0 && open < 16 && arriving.rule().closes&(1<<open) != 0
}

// IsVoid reports whether the (lowercased) tag name is a void element; see
// Atom.Void.
func IsVoid(name string) bool { return Lookup(name).Void() }

// IsRawText reports whether the (lowercased) tag name is a raw-text
// element; see Atom.RawText.
func IsRawText(name string) bool { return Lookup(name).RawText() }

// AtomTable numbers the tag names of one document: a built-in name keeps
// its fixed atom, and every other name gets the next atom from
// NumBuiltinAtoms up, in order of first Intern. The atoms are dense, so
// per-document statistics can index slices by them, and their count is
// bounded by the document's start-tags. The zero value is ready to use.
type AtomTable struct {
	extra map[string]Atom
	names []string // names[i] has atom NumBuiltinAtoms+i
}

// maxRetainedAtoms bounds the names a table keeps across Reset: one
// document with endless distinct tag names must not pin its map forever.
const maxRetainedAtoms = 1 << 12

// Reset forgets every name outside the built-in table.
func (t *AtomTable) Reset() {
	if len(t.names) > maxRetainedAtoms {
		t.extra, t.names = nil, nil
		return
	}
	clear(t.extra)
	clear(t.names)
	t.names = t.names[:0]
}

// Find returns name's atom, matched exactly, or 0 when name is neither
// built in nor interned.
func (t *AtomTable) Find(name string) Atom {
	if a := Lookup(name); a != 0 {
		return a
	}
	return t.extra[name]
}

// Intern returns name's atom, numbering it when it is new. The table keeps
// name until Reset, so name must stay valid and unchanged until then.
func (t *AtomTable) Intern(name string) Atom {
	if a := t.Find(name); a != 0 || name == "" {
		return a
	}
	if t.extra == nil {
		t.extra = make(map[string]Atom)
	}
	a := NumBuiltinAtoms + Atom(len(t.names))
	t.names = append(t.names, name)
	t.extra[name] = a
	return a
}

// Name returns the name of an atom the table gave out, or of a built-in
// atom.
func (t *AtomTable) Name(a Atom) string {
	if a < NumBuiltinAtoms {
		return a.String()
	}
	return t.names[a-NumBuiltinAtoms]
}
