namespace demo {
int Used(int x);
int Helper(int x);
}  // namespace demo

int main(int argc, char**) { return demo::Used(argc) + demo::Helper(argc) == 0; }
