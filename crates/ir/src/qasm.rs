//! OpenQASM 2.0 interchange (subset).
//!
//! The original FastSC consumed Qiskit circuits; this module provides the
//! equivalent interoperability for a Rust toolchain: [`to_qasm`] emits a
//! self-contained OpenQASM 2.0 program for any [`Circuit`], and
//! [`from_qasm`] parses the subset this workspace emits (one quantum
//! register, the gate set of [`Gate`], no classical control).
//!
//! QASM is also the **wire format** of the network serving layer
//! (`fastsc_server`): programs submitted over a socket arrive as QASM
//! source and are parsed on the submission path. Parse failures there
//! must become structured error frames, so every error path here is a
//! typed [`QasmError`] variant carrying the offending 1-based line,
//! column, and token — never an ad-hoc string.

use crate::circuit::{Circuit, IrError, Operands};
use crate::gate::Gate;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`from_qasm`].
///
/// Every variant that points at source text carries the 1-based `line`
/// and `column` of the offending token (and the token itself where one
/// exists), so error surfaces — CLI diagnostics, wire protocol error
/// frames — can report the exact location without re-parsing. The
/// uniform accessors [`line`](Self::line), [`column`](Self::column),
/// [`token`](Self::token), and [`code`](Self::code) exist for exactly
/// that serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QasmError {
    /// A statement is missing its trailing semicolon. The column points
    /// just past the statement text, where the `;` belongs.
    MissingSemicolon {
        /// 1-based line number.
        line: usize,
        /// 1-based column where the semicolon was expected.
        column: usize,
    },
    /// A `qreg` declaration that does not have the form `qreg q[N]`.
    BadRegister {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the declaration.
        column: usize,
        /// The malformed declaration text.
        token: String,
    },
    /// A second `qreg` declaration; the subset allows exactly one.
    DuplicateRegister {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the second declaration.
        column: usize,
    },
    /// A statement head that is not a supported gate (or not a gate at
    /// all).
    UnsupportedGate {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the head.
        column: usize,
        /// The unrecognized head, e.g. `ccx`.
        token: String,
    },
    /// An operand that does not have the form `q[N]`.
    BadOperand {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the operand.
        column: usize,
        /// The malformed operand text.
        token: String,
    },
    /// A gate parameter that is not a finite decimal angle.
    BadAngle {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the parameter.
        column: usize,
        /// The malformed parameter text, e.g. `rx(nope`.
        token: String,
    },
    /// A gate applied to the wrong number of operands.
    WrongArity {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the gate head.
        column: usize,
        /// The gate name.
        gate: String,
        /// Operands the gate requires.
        expected: usize,
        /// Operands the statement supplied.
        got: usize,
    },
    /// An operand index at or past the declared register size.
    QubitOutOfRange {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending operand.
        column: usize,
        /// The out-of-range qubit index.
        qubit: usize,
        /// The declared register size.
        register: usize,
    },
    /// A two-qubit gate applied to the same qubit twice.
    DuplicateOperand {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the repeated operand.
        column: usize,
        /// The repeated qubit index.
        qubit: usize,
    },
    /// The program never declared a quantum register (or applied a gate
    /// before declaring it).
    MissingRegister,
}

impl QasmError {
    /// The 1-based source line, when the error points at source text.
    pub fn line(&self) -> Option<usize> {
        match *self {
            QasmError::MissingSemicolon { line, .. }
            | QasmError::BadRegister { line, .. }
            | QasmError::DuplicateRegister { line, .. }
            | QasmError::UnsupportedGate { line, .. }
            | QasmError::BadOperand { line, .. }
            | QasmError::BadAngle { line, .. }
            | QasmError::WrongArity { line, .. }
            | QasmError::QubitOutOfRange { line, .. }
            | QasmError::DuplicateOperand { line, .. } => Some(line),
            QasmError::MissingRegister => None,
        }
    }

    /// The 1-based source column, when the error points at source text.
    pub fn column(&self) -> Option<usize> {
        match *self {
            QasmError::MissingSemicolon { column, .. }
            | QasmError::BadRegister { column, .. }
            | QasmError::DuplicateRegister { column, .. }
            | QasmError::UnsupportedGate { column, .. }
            | QasmError::BadOperand { column, .. }
            | QasmError::BadAngle { column, .. }
            | QasmError::WrongArity { column, .. }
            | QasmError::QubitOutOfRange { column, .. }
            | QasmError::DuplicateOperand { column, .. } => Some(column),
            QasmError::MissingRegister => None,
        }
    }

    /// The offending token, for the variants that carry one.
    pub fn token(&self) -> Option<&str> {
        match self {
            QasmError::BadRegister { token, .. }
            | QasmError::UnsupportedGate { token, .. }
            | QasmError::BadOperand { token, .. }
            | QasmError::BadAngle { token, .. } => Some(token),
            QasmError::WrongArity { gate, .. } => Some(gate),
            _ => None,
        }
    }

    /// A stable machine-readable discriminant (the wire protocol's
    /// `detail` field).
    pub fn code(&self) -> &'static str {
        match self {
            QasmError::MissingSemicolon { .. } => "missing_semicolon",
            QasmError::BadRegister { .. } => "bad_register",
            QasmError::DuplicateRegister { .. } => "duplicate_register",
            QasmError::UnsupportedGate { .. } => "unsupported_gate",
            QasmError::BadOperand { .. } => "bad_operand",
            QasmError::BadAngle { .. } => "bad_angle",
            QasmError::WrongArity { .. } => "wrong_arity",
            QasmError::QubitOutOfRange { .. } => "qubit_out_of_range",
            QasmError::DuplicateOperand { .. } => "duplicate_operand",
            QasmError::MissingRegister => "missing_register",
        }
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let (Some(line), Some(column)) = (self.line(), self.column()) {
            write!(f, "QASM syntax error on line {line}, column {column}: ")?;
        }
        match self {
            QasmError::MissingSemicolon { .. } => {
                write!(f, "missing trailing semicolon")
            }
            QasmError::BadRegister { token, .. } => {
                write!(f, "bad qreg declaration '{token}'")
            }
            QasmError::DuplicateRegister { .. } => {
                write!(f, "duplicate qreg declaration (the subset allows exactly one)")
            }
            QasmError::UnsupportedGate { token, .. } => {
                write!(f, "unsupported gate '{token}'")
            }
            QasmError::BadOperand { token, .. } => {
                write!(f, "bad operand '{token}' (expected q[N])")
            }
            QasmError::BadAngle { token, .. } => {
                write!(f, "bad angle in '{token}'")
            }
            QasmError::WrongArity { gate, expected, got, .. } => {
                write!(f, "gate '{gate}' expects {expected} operands, got {got}")
            }
            QasmError::QubitOutOfRange { qubit, register, .. } => {
                write!(f, "qubit q[{qubit}] out of range for qreg q[{register}]")
            }
            QasmError::DuplicateOperand { qubit, .. } => {
                write!(f, "two-qubit gate applied twice to q[{qubit}]")
            }
            QasmError::MissingRegister => {
                write!(f, "QASM program declares no qreg")
            }
        }
    }
}

impl Error for QasmError {}

/// Emits the circuit as an OpenQASM 2.0 program over one register `q`.
///
/// Gates outside the OpenQASM standard header (`iswap`, `sqiswap`) are
/// declared as opaque gates so the output round-trips through
/// [`from_qasm`] and remains readable by tools that ignore opaque bodies.
///
/// Rotation angles are printed with Rust's shortest round-trip `f64`
/// formatting, so `from_qasm(to_qasm(c))` reconstructs every angle
/// **bit-exactly** (the structural-hash round-trip property suite pins
/// this).
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    out.push_str("opaque iswap a, b;\n");
    out.push_str("opaque sqiswap a, b;\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    for inst in circuit.instructions() {
        let line = match (inst.gate, inst.operands) {
            (Gate::Id, Operands::One(q)) => format!("id q[{q}];"),
            (Gate::X, Operands::One(q)) => format!("x q[{q}];"),
            (Gate::Y, Operands::One(q)) => format!("y q[{q}];"),
            (Gate::Z, Operands::One(q)) => format!("z q[{q}];"),
            (Gate::H, Operands::One(q)) => format!("h q[{q}];"),
            (Gate::S, Operands::One(q)) => format!("s q[{q}];"),
            (Gate::Sdg, Operands::One(q)) => format!("sdg q[{q}];"),
            (Gate::T, Operands::One(q)) => format!("t q[{q}];"),
            (Gate::Tdg, Operands::One(q)) => format!("tdg q[{q}];"),
            (Gate::Rx(a), Operands::One(q)) => format!("rx({a}) q[{q}];"),
            (Gate::Ry(a), Operands::One(q)) => format!("ry({a}) q[{q}];"),
            (Gate::Rz(a), Operands::One(q)) => format!("rz({a}) q[{q}];"),
            (Gate::Cnot, Operands::Two(c, t)) => format!("cx q[{c}], q[{t}];"),
            (Gate::Cz, Operands::Two(a, b)) => format!("cz q[{a}], q[{b}];"),
            (Gate::Swap, Operands::Two(a, b)) => format!("swap q[{a}], q[{b}];"),
            (Gate::ISwap, Operands::Two(a, b)) => format!("iswap q[{a}], q[{b}];"),
            (Gate::SqrtISwap, Operands::Two(a, b)) => format!("sqiswap q[{a}], q[{b}];"),
            (g, _) => unreachable!("gate {g} with mismatched operands"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The 1-based column of `token` within the source line `raw` it was
/// sliced from. Falls back to column 1 if `token` is not a subslice
/// (never the case for the parser's own slices).
fn column_of(raw: &str, token: &str) -> usize {
    let offset = (token.as_ptr() as usize).wrapping_sub(raw.as_ptr() as usize);
    if offset <= raw.len() {
        offset + 1
    } else {
        1
    }
}

/// Parses the OpenQASM 2.0 subset emitted by [`to_qasm`].
///
/// Accepted statements: the version header, `include`, `opaque`/`barrier`
/// (ignored), one `qreg` declaration, and applications of the gate set.
/// Comments (`//`) and blank lines are skipped.
///
/// # Errors
///
/// Returns [`QasmError`] on unknown statements, malformed operands, or a
/// missing register declaration — each variant locating the offending
/// line, column, and token.
pub fn from_qasm(source: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let Some(stmt) = line.strip_suffix(';') else {
            return Err(QasmError::MissingSemicolon {
                line: line_no,
                column: column_of(raw, line) + line.len(),
            });
        };
        let stmt = stmt.trim();
        if stmt.starts_with("OPENQASM")
            || stmt.starts_with("include")
            || stmt.starts_with("opaque")
            || stmt.starts_with("barrier")
        {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("qreg") {
            if circuit.is_some() {
                return Err(QasmError::DuplicateRegister {
                    line: line_no,
                    column: column_of(raw, stmt),
                });
            }
            let n = bracketed_index(rest).ok_or_else(|| QasmError::BadRegister {
                line: line_no,
                column: column_of(raw, stmt),
                token: stmt.to_string(),
            })?;
            circuit = Some(Circuit::new(n));
            continue;
        }
        let circuit = circuit.as_mut().ok_or(QasmError::MissingRegister)?;
        parse_gate_statement(stmt, raw, line_no, circuit)?;
    }
    circuit.ok_or(QasmError::MissingRegister)
}

/// `raw` up to its first `//` comment marker, found by a plain byte scan
/// (a lone `/` is ordinary text).
fn strip_comment(raw: &str) -> &str {
    match raw.as_bytes().windows(2).position(|pair| pair == b"//") {
        Some(marker) => &raw[..marker],
        None => raw,
    }
}

/// The number between the first `[` and the first `]` of `text` (the `16`
/// of ` q[16]`, the `3` of `q[3]`); `None` when either bracket is
/// missing, they are out of order, or the text between them is not a
/// `usize`.
fn bracketed_index(text: &str) -> Option<usize> {
    let open = text.find('[')?;
    let close = text.find(']')?;
    text.get(open + 1..close)?.parse().ok()
}

/// Parses and applies one gate statement. `stmt` and every token the
/// errors point at are subslices of `raw`, so columns are exact.
fn parse_gate_statement(
    stmt: &str,
    raw: &str,
    line: usize,
    circuit: &mut Circuit,
) -> Result<(), QasmError> {
    let Some((head, args)) = stmt.split_once(' ') else {
        // No operand list at all, e.g. `measure;` — the head is the
        // whole statement and it is not a gate application we know.
        return Err(QasmError::UnsupportedGate {
            line,
            column: column_of(raw, stmt),
            token: stmt.to_string(),
        });
    };

    // No gate takes more than two operands: keep the first two with their
    // source tokens and only count the rest, which are still validated in
    // order.
    let mut operands = [(0usize, ""); 2];
    let mut got = 0;
    for token in args.split(',') {
        let qubit = bracketed_index(token).ok_or_else(|| QasmError::BadOperand {
            line,
            column: column_of(raw, token.trim_start()),
            token: token.trim().to_string(),
        })?;
        if let Some(slot) = operands.get_mut(got) {
            *slot = (qubit, token);
        }
        got += 1;
    }

    // Parameterized heads look like `rx(1.5707963267948966)`.
    let (name, angle) = match head.split_once('(') {
        Some((name, rest)) => {
            let angle: f64 = rest
                .strip_suffix(')')
                .and_then(|inner| inner.trim().parse().ok())
                .ok_or_else(|| QasmError::BadAngle {
                    line,
                    column: column_of(raw, rest),
                    token: head.to_string(),
                })?;
            (name.trim(), Some(angle))
        }
        None => (head.trim(), None),
    };

    let gate = match (name, angle) {
        ("id", None) => Gate::Id,
        ("x", None) => Gate::X,
        ("y", None) => Gate::Y,
        ("z", None) => Gate::Z,
        ("h", None) => Gate::H,
        ("s", None) => Gate::S,
        ("sdg", None) => Gate::Sdg,
        ("t", None) => Gate::T,
        ("tdg", None) => Gate::Tdg,
        ("rx", Some(a)) => Gate::Rx(a),
        ("ry", Some(a)) => Gate::Ry(a),
        ("rz", Some(a)) => Gate::Rz(a),
        ("cx", None) => Gate::Cnot,
        ("cz", None) => Gate::Cz,
        ("swap", None) => Gate::Swap,
        ("iswap", None) => Gate::ISwap,
        ("sqiswap", None) => Gate::SqrtISwap,
        _ => {
            return Err(QasmError::UnsupportedGate {
                line,
                column: column_of(raw, head),
                token: head.to_string(),
            })
        }
    };

    let pushed = match (gate.arity(), got) {
        (1, 1) => circuit.push1(gate, operands[0].0).map(|_| ()),
        (2, 2) => circuit.push2(gate, operands[0].0, operands[1].0).map(|_| ()),
        (expected, got) => {
            return Err(QasmError::WrongArity {
                line,
                column: column_of(raw, head),
                gate: name.to_string(),
                expected,
                got,
            })
        }
    };
    pushed.map_err(|e| {
        // Locate the operand the circuit rejected so the column points at
        // it, not at the whole statement.
        let column_of_qubit = |qubit: usize| {
            operands[..got].iter().find(|&&(q, _)| q == qubit).map_or_else(
                || column_of(raw, stmt),
                |(_, token)| column_of(raw, token.trim_start()),
            )
        };
        match e {
            IrError::QubitOutOfRange { qubit, n_qubits } => QasmError::QubitOutOfRange {
                line,
                column: column_of_qubit(qubit),
                qubit,
                register: n_qubits,
            },
            IrError::DuplicateOperand { qubit } => {
                QasmError::DuplicateOperand { line, column: column_of_qubit(qubit), qubit }
            }
        }
    })
}

/// A corpus of malformed QASM programs, one `(name, source)` pair per
/// known failure mode. Every entry must fail [`from_qasm`] with a typed
/// [`QasmError`] — the parser's own error-path tests iterate it, and the
/// network serving layer's frame-decode tests replay each entry over a
/// live socket to prove malformed submissions produce structured error
/// frames without killing the connection. Shared here so the two suites
/// can never drift apart.
pub fn malformed_corpus() -> &'static [(&'static str, &'static str)] {
    &[
        ("empty", ""),
        ("only_comment", "// nothing here\n"),
        ("no_register", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"),
        ("gate_before_register", "OPENQASM 2.0;\nh q[0];\n"),
        ("missing_semicolon", "qreg q[1]\n"),
        ("comment_swallows_semicolon", "qreg q[1];\nh q[0] // ;\n"),
        ("bad_register_empty_size", "qreg q[];\n"),
        ("bad_register_no_brackets", "qreg q;\n"),
        ("bad_register_negative", "qreg q[-3];\n"),
        ("duplicate_register", "qreg q[2];\nqreg r[2];\n"),
        ("unknown_gate", "qreg q[2];\nccx q[0], q[1];\n"),
        ("unknown_statement", "qreg q[2];\nmeasure;\n"),
        ("bad_arity_cx_one_operand", "qreg q[2];\ncx q[0];\n"),
        ("bad_arity_h_two_operands", "qreg q[2];\nh q[0], q[1];\n"),
        ("out_of_range_operand", "qreg q[1];\nh q[4];\n"),
        ("duplicate_operand", "qreg q[2];\ncx q[1], q[1];\n"),
        ("bad_angle_not_a_number", "qreg q[1];\nrx(nope) q[0];\n"),
        ("bad_angle_unterminated", "qreg q[1];\nrx(1.0 q[0];\n"),
        ("bad_operand_not_indexed", "qreg q[2];\ncx q[0], nope;\n"),
        ("truncated_mid_operand", "qreg q[2];\ncx q[0], q[;\n"),
        ("bad_arity_cx_three_operands", "qreg q[3];\ncx q[0], q[1], q[2];\n"),
        ("bad_third_operand", "qreg q[3];\ncx q[0], q[1], nope;\n"),
        ("lone_slash_is_not_a_comment", "qreg q[1];\nh q[0]; /\n"),
        ("operand_brackets_reversed", "qreg q[1];\nh ]q[;\n"),
        ("register_brackets_reversed", "qreg ]q[;\n"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::{circuit_unitary, matrices_equal_up_to_phase};

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::Rz(0.25), 1).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::ISwap, 1, 2).expect("valid");
        c.push2(Gate::SqrtISwap, 0, 2).expect("valid");
        c.push1(Gate::Tdg, 2).expect("valid");
        c
    }

    #[test]
    fn emits_header_and_register() {
        let qasm = to_qasm(&sample());
        assert!(qasm.starts_with("OPENQASM 2.0;"));
        assert!(qasm.contains("qreg q[3];"));
        assert!(qasm.contains("cx q[0], q[1];"));
        assert!(qasm.contains("iswap q[1], q[2];"));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let original = sample();
        let parsed = from_qasm(&to_qasm(&original)).expect("roundtrip parses");
        assert_eq!(parsed.n_qubits(), original.n_qubits());
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.instructions().iter().zip(parsed.instructions()) {
            assert_eq!(a.operands, b.operands);
            assert_eq!(a.gate.name(), b.gate.name());
        }
    }

    #[test]
    fn roundtrip_preserves_unitary() {
        let original = sample();
        let parsed = from_qasm(&to_qasm(&original)).expect("parses");
        assert!(matrices_equal_up_to_phase(
            &circuit_unitary(&original),
            &circuit_unitary(&parsed),
            1e-12
        ));
    }

    #[test]
    fn parses_comments_and_blanks() {
        let src =
            "OPENQASM 2.0;\n// a comment\n\nqreg q[2];\nh q[0]; // trailing\ncx q[0], q[1];\n";
        let c = from_qasm(src).expect("parses");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn comment_markers_inside_a_statement_strip_the_rest() {
        // `//` strips to end of line even when glued to the semicolon,
        // and a commented-out gate after a real one must not parse.
        let c = from_qasm("qreg q[2];\nrz(1.5) q[0];// x q[1];\n").expect("parses");
        assert_eq!(c.len(), 1);
        assert!(matches!(c.instructions()[0].gate, Gate::Rz(_)));
    }

    #[test]
    fn rejects_gate_before_register() {
        let err = from_qasm("OPENQASM 2.0;\nh q[0];\n").expect_err("no qreg");
        assert_eq!(err, QasmError::MissingRegister);
        assert_eq!(err.to_string(), "QASM program declares no qreg");
        assert_eq!((err.line(), err.column(), err.token()), (None, None, None));
    }

    #[test]
    fn rejects_unknown_gate_with_location() {
        let err = from_qasm("qreg q[2];\nccx q[0], q[1];\n").expect_err("ccx unsupported");
        assert_eq!(err, QasmError::UnsupportedGate { line: 2, column: 1, token: "ccx".into() });
        assert_eq!(
            err.to_string(),
            "QASM syntax error on line 2, column 1: unsupported gate 'ccx'"
        );
        assert_eq!(err.code(), "unsupported_gate");
    }

    #[test]
    fn rejects_missing_semicolon_pointing_past_the_statement() {
        let err = from_qasm("qreg q[1]\n").expect_err("no semicolon");
        assert_eq!(err, QasmError::MissingSemicolon { line: 1, column: 10 });
    }

    #[test]
    fn rejects_out_of_range_operand_with_the_operand_column() {
        let err = from_qasm("qreg q[1];\nh q[4];\n").expect_err("q4 out of range");
        assert_eq!(
            err,
            QasmError::QubitOutOfRange { line: 2, column: 3, qubit: 4, register: 1 }
        );
    }

    #[test]
    fn rejects_wrong_arity_with_counts() {
        let err = from_qasm("qreg q[2];\ncx q[0];\n").expect_err("cx needs 2");
        assert_eq!(
            err,
            QasmError::WrongArity {
                line: 2,
                column: 1,
                gate: "cx".into(),
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn rejects_duplicate_operand() {
        let err = from_qasm("qreg q[2];\ncx q[1], q[1];\n").expect_err("repeated operand");
        assert_eq!(err, QasmError::DuplicateOperand { line: 2, column: 4, qubit: 1 });
    }

    #[test]
    fn rejects_duplicate_register() {
        let err = from_qasm("qreg q[2];\nqreg r[3];\n").expect_err("one register only");
        assert_eq!(err, QasmError::DuplicateRegister { line: 2, column: 1 });
    }

    #[test]
    fn rejects_bad_angle_with_the_parameter_token() {
        let err = from_qasm("qreg q[1];\nrx(nope) q[0];\n").expect_err("bad angle");
        assert_eq!(err, QasmError::BadAngle { line: 2, column: 4, token: "rx(nope)".into() });
    }

    #[test]
    fn rejects_bad_operand_with_its_column() {
        let err = from_qasm("qreg q[2];\ncx q[0], nope;\n").expect_err("bad operand");
        assert_eq!(err, QasmError::BadOperand { line: 2, column: 10, token: "nope".into() });
    }

    #[test]
    fn every_corpus_entry_fails_with_a_typed_error() {
        use QasmError::*;
        let bad_register =
            |token: &str| BadRegister { line: 1, column: 1, token: token.into() };
        let arity = |gate: &str, expected, got| WrongArity {
            line: 2,
            column: 1,
            gate: gate.into(),
            expected,
            got,
        };
        let pinned = [
            ("empty", MissingRegister),
            ("only_comment", MissingRegister),
            ("no_register", MissingRegister),
            ("gate_before_register", MissingRegister),
            ("missing_semicolon", MissingSemicolon { line: 1, column: 10 }),
            ("comment_swallows_semicolon", MissingSemicolon { line: 2, column: 7 }),
            ("bad_register_empty_size", bad_register("qreg q[]")),
            ("bad_register_no_brackets", bad_register("qreg q")),
            ("bad_register_negative", bad_register("qreg q[-3]")),
            ("duplicate_register", DuplicateRegister { line: 2, column: 1 }),
            ("unknown_gate", UnsupportedGate { line: 2, column: 1, token: "ccx".into() }),
            (
                "unknown_statement",
                UnsupportedGate { line: 2, column: 1, token: "measure".into() },
            ),
            ("bad_arity_cx_one_operand", arity("cx", 2, 1)),
            ("bad_arity_h_two_operands", arity("h", 1, 2)),
            (
                "out_of_range_operand",
                QubitOutOfRange { line: 2, column: 3, qubit: 4, register: 1 },
            ),
            ("duplicate_operand", DuplicateOperand { line: 2, column: 4, qubit: 1 }),
            (
                "bad_angle_not_a_number",
                BadAngle { line: 2, column: 4, token: "rx(nope)".into() },
            ),
            ("bad_angle_unterminated", BadAngle { line: 2, column: 4, token: "rx(1.0".into() }),
            (
                "bad_operand_not_indexed",
                BadOperand { line: 2, column: 10, token: "nope".into() },
            ),
            ("truncated_mid_operand", BadOperand { line: 2, column: 10, token: "q[".into() }),
            // Operands past the two a gate can use are still counted...
            ("bad_arity_cx_three_operands", arity("cx", 2, 3)),
            // ...and validated, in order.
            ("bad_third_operand", BadOperand { line: 2, column: 16, token: "nope".into() }),
            ("lone_slash_is_not_a_comment", MissingSemicolon { line: 2, column: 10 }),
            (
                "operand_brackets_reversed",
                BadOperand { line: 2, column: 3, token: "]q[".into() },
            ),
            ("register_brackets_reversed", bad_register("qreg ]q[")),
        ];
        let corpus = malformed_corpus();
        assert_eq!(corpus.len(), pinned.len(), "pin every corpus entry");
        for ((name, source), (pinned_name, expected)) in corpus.iter().zip(pinned) {
            assert_eq!(*name, pinned_name);
            let err = from_qasm(source)
                .map(|_| ())
                .expect_err(&format!("corpus entry '{name}' must fail"));
            assert_eq!(err, expected, "{name}");
            // Every error renders and exposes its stable code; location
            // accessors agree with the variant's payload.
            assert!(!err.to_string().is_empty(), "{name}");
            assert!(!err.code().is_empty(), "{name}");
            if let Some(line) = err.line() {
                assert!(line >= 1, "{name}: lines are 1-based");
                assert!(err.column().is_some_and(|c| c >= 1), "{name}: columns are 1-based");
            }
        }
    }

    #[test]
    fn angle_precision_survives_roundtrip_bit_exactly() {
        let angles =
            [std::f64::consts::PI / 7.0, 1.23e-17, -0.0, 2.9999999999999996, f64::MIN_POSITIVE];
        for angle in angles {
            let mut c = Circuit::new(1);
            c.push1(Gate::Rx(angle), 0).expect("valid");
            let parsed = from_qasm(&to_qasm(&c)).expect("parses");
            match parsed.instructions()[0].gate {
                Gate::Rx(a) => assert_eq!(
                    a.to_bits(),
                    angle.to_bits(),
                    "angle {angle:e} must round-trip bit-exactly"
                ),
                ref g => panic!("expected rx, got {g}"),
            }
        }
    }
}
