package service

// ResultKeyOfText is the result key of a module text, as insertion plus a job
// compute it — for the external tests, which may import what imports this
// package.
func ResultKeyOfText(text string, req *Request) string {
	return resultKey(moduleKeyState(text), req)
}

// moduleKeyState is keyStateOf of the module a text prints, from the text.
func moduleKeyState(moduleText string) []byte {
	return keyState([]byte("mod\x00" + moduleText))
}

// resultKey digests req's result key from a module's key state, past the
// memo: the key a job of req computes on a memo miss.
func resultKey(keyState []byte, req *Request) string {
	ie := instrEntry{keyState: keyState, entry: req.Entry, baseline: req.Baseline}
	return ie.digestKey(simConfigOf(req))
}
