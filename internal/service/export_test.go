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
