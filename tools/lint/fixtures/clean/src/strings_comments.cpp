// Fixture: every trigger below sits ONLY inside a comment, string literal,
// char literal, or raw string.  The token-level lexer must keep ALL rules
// silent — the v1 line-regex scanner false-positived on several of these.
// Not compiled — lint fixture only.

// line comment: std::unordered_map<Key*, Value> m; rand(); time(nullptr);

/* block comment spanning lines:
   sched.schedule_after(sched.now() - delta, cb);
   double stale_bps = 622.08e6;
   auto* ev = new des::Event();
   std::map<Connection*, int> by_conn;
   std::chrono::system_clock::now();
*/

namespace gtw {

const char* kDoc =
    "for (auto& kv : table_) {} srand(7); std::unordered_set<int> s; "
    "printf(\"%f bytes\", 3.14); tcp_connect(host, port);";

const char* kSnippet = R"lint(
std::unordered_map<int*, int> m;
double rate_bps = 2.4e9;
reg.probe_counter("wan.X", f); reg.probe_gauge("wan.x", g); reg.probe_gauge("wan.X", g);
sched.schedule_after(dt, [&] { boom(); });
std::chrono::system_clock::now(); time(nullptr);
new Event(); malloc(64);
)lint";

const char kExp = 'e';  // char literal must not glue onto neighbours

}  // namespace gtw
