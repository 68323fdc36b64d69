package distributed

func Run() {}
