package ir

import "errors"

// ParseReference is the reference twin of Parse (parse_ref_test.go), for the
// package's external tests.
var ParseReference = parseReference

// ParseErrorLine returns the line a parse error names, or 0 for any other
// error.
func ParseErrorLine(err error) int {
	var pe *parseError
	if errors.As(err, &pe) {
		return pe.line
	}
	return 0
}
