// A three-function library: one function production calls, one only the
// test calls, one nothing calls.
namespace demo {

int Used(int x) { return x + 1; }

int TestOnly(int x) { return x * 2; }

int Unused(int x) { return x - 3; }

}  // namespace demo
