package mis
