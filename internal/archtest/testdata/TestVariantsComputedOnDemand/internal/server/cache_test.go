package server

func removeVariant(key string) {}
