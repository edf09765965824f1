//===- analysis/AuditHooks.h - Compile-time audit hook macros ---------------===//
///
/// \file
/// The `SBD_AUDIT_*` call-site macros for the invariant auditor. The arena
/// and solver hot paths invoke these unconditionally; in the default build
/// (`SBD_AUDIT=0`) every macro expands to `((void)0)` so the auditor
/// contributes zero code and zero data to the hot path. Configure with
/// `-DSBD_AUDIT=ON` to enable incremental audits at intern time, DNF
/// clean-branch checks at memoization time, and a full arena audit on every
/// `checkSat` exit (see analysis/Audit.h).
///
/// This header is deliberately tiny and self-contained so the re/core
/// libraries can include it without growing a link dependency on
/// libsbd_analysis: all hooks reached from those libraries are
/// header-inline. Only `SBD_AUDIT_CHECKSAT_EXIT` calls into the library,
/// and only the solver (which links it) uses that macro.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_ANALYSIS_AUDITHOOKS_H
#define SBD_ANALYSIS_AUDITHOOKS_H

#ifndef SBD_AUDIT
#define SBD_AUDIT 0
#endif

#if SBD_AUDIT

#include "analysis/Audit.h"

/// Validates a freshly interned regex node (call only on the miss path).
#define SBD_AUDIT_RE_NODE(M, R) (::sbd::audit::hookNewReNode((M), (R)))
/// Validates a freshly interned transition-regex node.
#define SBD_AUDIT_TR_NODE(T, X) (::sbd::audit::hookNewTrNode((T), (X)))
/// Validates clean-branch DNF form of a fresh δdnf result.
#define SBD_AUDIT_DNF(T, X) (::sbd::audit::hookDnfResult((T), (X)))
/// Full arena audit on a checkSat exit path.
#define SBD_AUDIT_CHECKSAT_EXIT(M, T)                                          \
  (::sbd::audit::hookCheckSatExit((M), (T)))

#else

#define SBD_AUDIT_RE_NODE(M, R) ((void)0)
#define SBD_AUDIT_TR_NODE(T, X) ((void)0)
#define SBD_AUDIT_DNF(T, X) ((void)0)
#define SBD_AUDIT_CHECKSAT_EXIT(M, T) ((void)0)

#endif // SBD_AUDIT

#endif // SBD_ANALYSIS_AUDITHOOKS_H
