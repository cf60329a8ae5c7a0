package h5

// Walk exposes walk to the external tests.
func (o *Object) Walk(path string) (ObjectHandle, string, error) { return o.walk(path) }
