package script

// Node is any AST node.
type Node interface{ node() }

// ---- Statements ----

// Program is the root.
type Program struct{ Body []Node }

// VarDecl declares one variable (var/let/const collapse to one form).
type VarDecl struct {
	Name string
	Init Node // may be nil
	Line int
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct{ X Node }

// IfStmt is if/else.
type IfStmt struct {
	Cond Node
	Then Node
	Else Node // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Node
	Body Node
}

// ForStmt is a classic for loop (any clause may be nil).
type ForStmt struct {
	Init Node
	Cond Node
	Post Node
	Body Node
}

// SwitchStmt is switch (Tag) { cases }.
type SwitchStmt struct {
	Tag   Node
	Cases []SwitchCase
}

// SwitchCase is one case (Test nil for default). Execution falls
// through to subsequent cases until a break, like JavaScript.
type SwitchCase struct {
	Test Node
	Body []Node
}

// DoWhileStmt is do Body while (Cond).
type DoWhileStmt struct {
	Body Node
	Cond Node
}

// BlockStmt is { ... }; it opens a scope.
type BlockStmt struct{ Body []Node }

// SeqStmt runs statements in the CURRENT scope (no new environment) —
// used for multi-declarator var statements, whose bindings must land in
// the enclosing scope.
type SeqStmt struct{ Body []Node }

// ReturnStmt returns from a function.
type ReturnStmt struct{ X Node } // X may be nil

// BreakStmt / ContinueStmt control loops.
type BreakStmt struct{}
type ContinueStmt struct{}

// ThrowStmt throws a value.
type ThrowStmt struct{ X Node }

// TryStmt is try/catch/finally.
type TryStmt struct {
	Body     *BlockStmt
	CatchVar string
	Catch    *BlockStmt // may be nil
	Finally  *BlockStmt // may be nil
}

// FuncDecl is a named function declaration: a function literal with a
// block body, bound to Name in the scope that declares it.
type FuncDecl struct {
	Name string
	FuncLit
}

// ---- Expressions ----

// Ident references a variable.
type Ident struct {
	Name string
	Line int
}

// Lit is a literal value (string/number/bool/null/undefined).
type Lit struct{ Val Value }

// ThisExpr is `this`.
type ThisExpr struct{}

// Member is obj.Name or obj[Expr].
type Member struct {
	Obj      Node
	Name     string // set for dot access
	Index    Node   // set for bracket access
	Optional bool   // ?. access
	Line     int
}

// Call is fn(args...).
type Call struct {
	Fn       Node
	Args     []Node
	New      bool // new Fn(args)
	Optional bool // fn?.(args): undefined when fn is nullish
	Line     int
}

// Unary is op X (prefix).
type Unary struct {
	Op string
	X  Node
}

// Binary is X op Y.
type Binary struct {
	Op   string
	X, Y Node
	Line int
}

// Logical is X && Y or X || Y or X ?? Y (short-circuit).
type Logical struct {
	Op   string
	X, Y Node
	Line int
}

// Cond is the ternary.
type Cond struct {
	Test, Then, Else Node
}

// Assign is Target = Val (and op-assign like +=).
type Assign struct {
	Op     string // "=", "+=", ...
	Target Node   // Ident or Member
	Val    Node
	Line   int
}

// Update is ++X / --X (Prefix) or X++ / X--. Both write ToNumber of the
// old value plus or minus one; the prefix form yields the new value and
// the postfix form the old one, as a number.
type Update struct {
	Op     string // "++" or "--"
	Target Node
	Prefix bool
}

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	Keys []string
	Vals []Node
}

// ArrayLit is [v, ...].
type ArrayLit struct{ Elems []Node }

// FuncLit is a function expression, shorthand method or arrow function.
type FuncLit struct {
	Params []string
	Body   *BlockStmt
	// ExprBody is set for `(x) => expr` arrows.
	ExprBody Node
	Line     int
	// UsesArguments reports whether the body names `arguments`, in a
	// nested function or a template interpolation too. The parser sets
	// it; the compiler lays out an arguments slot only then.
	UsesArguments bool
}

// SpreadExpr is ...x in call arguments.
type SpreadExpr struct{ X Node }

func (*Program) node()      {}
func (*VarDecl) node()      {}
func (*ExprStmt) node()     {}
func (*IfStmt) node()       {}
func (*WhileStmt) node()    {}
func (*ForStmt) node()      {}
func (*BlockStmt) node()    {}
func (*SeqStmt) node()      {}
func (*SwitchStmt) node()   {}
func (*DoWhileStmt) node()  {}
func (*ReturnStmt) node()   {}
func (*BreakStmt) node()    {}
func (*ContinueStmt) node() {}
func (*ThrowStmt) node()    {}
func (*TryStmt) node()      {}
func (*FuncDecl) node()     {}
func (*Ident) node()        {}
func (*Lit) node()          {}
func (*ThisExpr) node()     {}
func (*Member) node()       {}
func (*Call) node()         {}
func (*Unary) node()        {}
func (*Binary) node()       {}
func (*Logical) node()      {}
func (*Cond) node()         {}
func (*Assign) node()       {}
func (*Update) node()       {}
func (*ObjectLit) node()    {}
func (*ArrayLit) node()     {}
func (*FuncLit) node()      {}
func (*SpreadExpr) node()   {}
