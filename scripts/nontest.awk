# Prints the lines of Rust source files that are not part of a
# `#[cfg(test)]` item. Shared by loc.sh (which counts the lines) and
# dead_api.sh (which scans them for names), so both read the same code.
#
# A `#[cfg(test)]` item is skipped from its attribute line to the line
# holding the `}` that closes it, or the `;` that ends it, with braces,
# brackets and parentheses matched. Text inside comments and string or
# char literals never counts toward the matching, so a test's "{" literal
# cannot end or extend the skip. Everything after the item is read again,
# so a `#[cfg(test)]` helper in the middle of a file hides only itself.
#
#   awk -f nontest.awk FILE...           # the lines as written
#   awk -v code=1 -f nontest.awk FILE... # FILE<TAB>line, with comments and
#                                        # the contents of string and char
#                                        # literals removed
#
# Written for POSIX awk (mawk included); lexing is byte-wise.

FNR == 1 {
    comment = 0  # depth of nested /* */ comments
    instr = 0    # inside a "..." string
    raw = -1     # inside a raw string: the number of '#' that close it
    skipping = 0
}

{
    line = $0
    n = length(line)
    out = ""
    if (!skipping && !comment && !instr && raw < 0 && line ~ /^[ \t]*#\[cfg\(test\)\]/) {
        skipping = 1
        depth = 0
    }
    was_skipping = skipping
    prev = ""
    i = 1
    while (i <= n) {
        c = substr(line, i, 1)
        if (comment) {
            if (c == "*" && substr(line, i + 1, 1) == "/") { comment--; i += 2; continue }
            if (c == "/" && substr(line, i + 1, 1) == "*") { comment++; i += 2; continue }
            i++
            continue
        }
        if (instr) {
            if (c == "\\") { i += 2; continue }
            if (c == "\"") { instr = 0; out = out "\"" }
            i++
            continue
        }
        if (raw >= 0) {
            if (c == "\"" && substr(line, i + 1, raw) == hashes(raw)) {
                i += 1 + raw
                raw = -1
                out = out "\""
                continue
            }
            i++
            continue
        }
        if (c == "/" && substr(line, i + 1, 1) == "/") break
        if (c == "/" && substr(line, i + 1, 1) == "*") { comment = 1; i += 2; continue }
        if (c == "\"") { instr = 1; out = out "\""; prev = c; i++; continue }
        # r"..", r#".."#, br#".."# (the prefix starts a token)
        if ((c == "r" || (c == "b" && substr(line, i + 1, 1) == "r")) && prev !~ /[A-Za-z0-9_]/) {
            j = i + (c == "b" ? 2 : 1)
            h = 0
            while (substr(line, j, 1) == "#") { h++; j++ }
            if (substr(line, j, 1) == "\"") {
                raw = h
                out = out "\""
                prev = "\""
                i = j + 1
                continue
            }
        }
        if (c == "'") {
            # A char literal ('x', '\n', '\u{..}', a multi-byte UTF-8
            # char) or a lifetime/label ('a, 'static), which stays code.
            d = substr(line, i + 1, 1)
            close_at = 0
            if (d == "\\") {
                for (j = i + 2; j <= n; j++) if (substr(line, j, 1) == "'") { close_at = j; break }
            } else if (substr(line, i + 2, 1) == "'") {
                close_at = i + 2
            } else if (d > "~") {
                for (j = i + 2; j <= n && j <= i + 5; j++) if (substr(line, j, 1) == "'") { close_at = j; break }
            }
            if (close_at) {
                out = out "' '"
                prev = "'"
                i = close_at + 1
                continue
            }
        }
        out = out c
        prev = c
        if (skipping) {
            if (c == "{" || c == "[" || c == "(") depth++
            else if (c == "}" || c == "]" || c == ")") {
                depth--
                if (depth == 0 && c == "}") skipping = 0
            } else if (c == ";" && depth == 0) skipping = 0
        }
        i++
    }
    if (was_skipping) next
    if (code) print FILENAME "\t" out
    else print line
}

function hashes(k,    s) {
    s = ""
    while (k-- > 0) s = s "#"
    return s
}
